package scheduler

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
	"transproc/internal/twopc"
	"transproc/internal/wal"
)

// ErrCrashed is returned by Run when the configured crash point was
// reached; federation and log state survive for Recover.
var ErrCrashed = errors.New("scheduler: injected crash")

// preparedTx remembers an in-doubt local transaction per activity.
type preparedTx struct {
	sub     *subsystem.Subsystem
	tx      subsystem.TxID
	service string
	seq     int64 // global completion sequence of the prepare
	weak    bool  // invoked under the weak order
}

// procRT is the runtime of one process; its policy-visible part is
// the embedded table entry.
type procRT struct {
	policy.Proc
	def *process.Process

	arrivalTime  int64
	abortPending bool       // abort requested, waiting for in-flight work
	restartable  bool       // restart after the pending abort completes
	origin       process.ID // subsystem identity (all restart suffixes stripped)
	base         process.ID // admitted job id restarts derive from ("base+rN")
	restarts     int
	prepared     map[int]preparedTx
	attempts     map[int]int
	keySeq       int // idempotency-key counter (resilient invocations)
	start, end   int64
	// blockedSince is the clock at which the finished process first
	// found its deferred 2PC commit blocked by an active conflicting
	// predecessor (-1 while not blocked); feeds HistProcBlocked.
	blockedSince int64
}

// completion is a scheduled future event in virtual time.
type completion struct {
	at, seq int64
	proc    process.ID
	isStep  bool
	step    process.Step
	local   int
	service string
	kind    activity.Kind
	res     *subsystem.Result
	failed  bool // the local transaction aborted
	weak    bool // invoked under the weak order (Section 3.6)
	tries   int  // commit-order wait retries (safety bound)
}

type completionHeap []*completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h completionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(*completion)) }
func (h *completionHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Engine executes a set of processes against a federation of
// transactional subsystems under a scheduling policy. The pure PRED
// decisions (conflict graph, forced ordering, Lemma 1-3 gates) live in
// internal/scheduler/policy and are shared with the concurrent runtime;
// the engine contributes the discrete-event loop, virtual time,
// subsystem interaction, 2PC, the WAL and the weak order.
type Engine struct {
	cfg   Config
	fed   *subsystem.Federation
	table *conflict.Table
	log   wal.Log
	coord *twopc.Coordinator
	pol   *policy.State

	clock   int64
	seq     int64
	queue   completionHeap
	byID    map[process.ID]*procRT // admitted processes (the policy owns their order)
	pending []*procRT              // not yet admitted (Serial/Conservative gating)

	metrics     Metrics
	reg         *metrics.Registry // observability registry (nil = no-op)
	completions int
	crashed     bool
	outcomes    map[process.ID]*Outcome
	origProcs   []*process.Process
	allProcs    []*process.Process // including restarts

	// Checkpointing state (Config.CheckpointEvery).
	ckptAppends int  // force-log appends since the last checkpoint
	ckptTaken   int  // checkpoints taken this run
	ckptBusy    bool // a checkpoint append must not recurse
}

// active iterates the non-terminated admitted processes in admission
// order.
func (e *Engine) active(yield func(*procRT) bool) {
	for _, p := range e.pol.Procs() {
		if p.Phase != policy.Done && !yield(e.byID[p.ID]) {
			return
		}
	}
}

// bump invalidates the policy's forced-graph cache.
func (e *Engine) bump() { e.pol.Bump() }

// conflicts is the memoized conflict check shared with the policy.
func (e *Engine) conflicts(a, b string) bool { return e.pol.Conflicts(a, b) }

// New creates an engine over the federation. The conflict table is
// derived from the subsystems' declared read/write sets.
func New(fed *subsystem.Federation, cfg Config) (*Engine, error) {
	table, err := fed.ConflictTable()
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.GroupCommit.Enabled() {
		cfg.Log = wal.NewGroupAppender(cfg.Log, cfg.GroupCommit, cfg.Inject)
	}
	e := &Engine{
		cfg:      cfg,
		fed:      fed,
		table:    table,
		log:      cfg.Log,
		coord:    twopc.New(cfg.Log),
		reg:      cfg.Metrics,
		pol:      policy.New(table, policy.Config{Mode: cfg.Mode, BlockPivots: cfg.BlockPivots}),
		byID:     make(map[process.ID]*procRT),
		outcomes: make(map[process.ID]*Outcome),
	}
	if e.reg != nil {
		// Wire the registry through the whole stack: the coordinator
		// (prepared-set sizes), every subsystem (invocation counters,
		// in-doubt sizes) and the WAL (append/fsync totals).
		e.coord.Metrics = e.reg
		fed.SetMetrics(e.reg)
		if il, ok := e.log.(wal.Instrumented); ok {
			il.SetMetrics(e.reg)
		}
	}
	e.coord.Inject = cfg.Inject
	return e, nil
}

// append force-logs a record, bracketing the write with the configured
// crash points. Crash injection aside, it behaves exactly like a
// direct Append to the WAL.
func (e *Engine) append(rec wal.Record) {
	e.inject("sched:before-forcelog")
	e.log.Append(rec)
	e.maybeCheckpoint()
	e.inject("sched:after-forcelog")
}

// maybeCheckpoint takes a fuzzy checkpoint (and optionally compacts
// the log) once CheckpointEvery force-log appends have accumulated.
// Checkpointing is an optimization: a failed attempt is dropped, never
// surfaced into the run. Injected crash sentinels do propagate — a
// crash inside a checkpoint is exactly what the torture battery
// exercises.
func (e *Engine) maybeCheckpoint() {
	if e.cfg.CheckpointEvery <= 0 || e.ckptBusy {
		return
	}
	e.ckptAppends++
	if e.ckptAppends < e.cfg.CheckpointEvery {
		return
	}
	if e.cfg.CheckpointLimit > 0 && e.ckptTaken >= e.cfg.CheckpointLimit {
		return
	}
	e.ckptBusy = true
	defer func() { e.ckptBusy = false }()
	if _, err := wal.TakeCheckpoint(e.log, e.conflicts, e.cfg.Inject, e.reg); err != nil {
		return
	}
	// Durable subsystems flush their pages at every checkpoint: the
	// write-ahead barrier inside the store has already forced the log,
	// and a bounded-replay recovery then also starts from near-fresh
	// pages. A flush error is dropped like a failed checkpoint — the
	// WAL remains the source of truth.
	if e.fed.Durable() {
		e.fed.FlushStores()
	}
	e.ckptAppends = 0
	e.ckptTaken++
	if e.cfg.CompactOnCheckpoint {
		if c, ok := e.log.(wal.Compactor); ok {
			c.Compact(e.cfg.Inject)
		}
	}
}

// inject fires a named crash point; no-op without a configured hook.
func (e *Engine) inject(point string) {
	if e.cfg.Inject != nil {
		e.cfg.Inject(point)
	}
}

// Table returns the conflict table the engine scheduled under.
func (e *Engine) Table() *conflict.Table { return e.table }

// Log returns the engine's write-ahead log (for recovery).
func (e *Engine) Log() wal.Log { return e.log }

// Result is the outcome of a run.
type Result struct {
	// Schedule is the observed process schedule, reconstructed from the
	// finalized events; it can be checked with PRED(), Serializable()
	// and ProcessRecoverable().
	Schedule *schedule.Schedule
	Metrics  Metrics
	Outcomes map[process.ID]*Outcome
	Crashed  bool
}

// Job is a process with an arrival time in virtual ticks.
type Job struct {
	Proc    *process.Process
	Arrival int64
}

// ValidateJobs checks that the processes of a job set have guaranteed
// termination and reference only services the federation provides with
// matching kinds; both engines run it before execution.
func ValidateJobs(fed *subsystem.Federation, jobs []Job) error {
	for _, j := range jobs {
		p := j.Proc
		if err := process.ValidateGuaranteedTermination(p); err != nil {
			return fmt.Errorf("scheduler: process %s lacks guaranteed termination: %w", p.ID, err)
		}
		for _, a := range p.Activities() {
			spec, ok := fed.Spec(a.Service)
			if !ok {
				return fmt.Errorf("scheduler: process %s uses unknown service %q", p.ID, a.Service)
			}
			if spec.Kind != a.Kind {
				return fmt.Errorf("scheduler: process %s activity %d declares %v for service %q of kind %v",
					p.ID, a.Local, a.Kind, a.Service, spec.Kind)
			}
			if a.Kind == activity.Compensatable && spec.Compensation != a.Compensation {
				return fmt.Errorf("scheduler: process %s activity %d compensation %q, subsystem provides %q",
					p.ID, a.Local, a.Compensation, spec.Compensation)
			}
		}
	}
	return nil
}

// Run executes the processes to completion (or crash) and returns the
// observed schedule plus metrics; all processes arrive at time zero.
func (e *Engine) Run(procs []*process.Process) (*Result, error) {
	jobs := make([]Job, len(procs))
	for i, p := range procs {
		jobs[i] = Job{Proc: p}
	}
	return e.RunJobs(jobs)
}

// RunJobs executes the processes to completion (or crash), admitting
// each when the virtual clock reaches its arrival time. Process
// definitions must have guaranteed termination; services they reference
// must exist in the federation.
func (e *Engine) RunJobs(jobs []Job) (res *Result, err error) {
	// An armed fault plan (Config.Inject, or a fault-wrapped WAL) stops
	// the run by panicking with a crash sentinel; recover it here and
	// hand back the partial result so the caller can drive Recover over
	// the surviving log and subsystem state.
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		crash, ok := v.(interface{ InjectedCrash() string })
		if !ok {
			panic(v)
		}
		e.crashed = true
		e.metrics.Makespan = e.clock
		res = &Result{
			Schedule: e.buildSchedule(),
			Metrics:  e.metrics,
			Outcomes: e.outcomes,
			Crashed:  true,
		}
		err = fmt.Errorf("%w (injected at %s)", ErrCrashed, crash.InjectedCrash())
	}()
	if err := ValidateJobs(e.fed, jobs); err != nil {
		return nil, err
	}
	procs := make([]*process.Process, len(jobs))
	for i, j := range jobs {
		procs[i] = j.Proc
	}
	e.origProcs = procs
	for i, j := range jobs {
		rt := e.newRT(j.Proc, i, resolveOrigin(j.Proc.ID))
		rt.base = j.Proc.ID
		rt.arrivalTime = j.Arrival
		e.pending = append(e.pending, rt)
	}
	e.admit()

	stalls := 0
	for {
		if e.crashed {
			break
		}
		progressed := e.dispatchAll()
		if e.admit() {
			progressed = true
		}
		if len(e.queue) == 0 {
			if progressed {
				continue
			}
			if e.allDone() {
				break
			}
			// Idle until the next arrival, if any.
			if next, ok := e.nextArrival(); ok && next > e.clock {
				e.clock = next
				continue
			}
			stalls++
			if stalls > e.cfg.MaxStalls {
				return nil, fmt.Errorf("scheduler: stalled with active processes and no progress (mode %v)\n%s", e.cfg.Mode, e.stallDump())
			}
			if !e.resolveStall() {
				return nil, fmt.Errorf("scheduler: unresolvable stall (mode %v)\n%s", e.cfg.Mode, e.stallDump())
			}
			continue
		}
		// Admit arrivals that precede the next completion.
		if next, ok := e.nextArrival(); ok && next <= e.queue[0].at {
			if next > e.clock {
				e.clock = next
			}
			e.admit()
			continue
		}
		ev := heap.Pop(&e.queue).(*completion)
		if ev.at > e.clock {
			e.clock = ev.at
		}
		if err := e.handleCompletion(ev); err != nil {
			return nil, err
		}
		e.completions++
		if e.cfg.CrashAfterEvents > 0 && e.completions >= e.cfg.CrashAfterEvents {
			e.crashed = true
		}
	}

	e.metrics.Makespan = e.clock
	res = &Result{
		Schedule: e.buildSchedule(),
		Metrics:  e.metrics,
		Outcomes: e.outcomes,
		Crashed:  e.crashed,
	}
	if e.crashed {
		return res, ErrCrashed
	}
	return res, nil
}

func (e *Engine) newRT(p *process.Process, arrival int, origin process.ID) *procRT {
	rt := &procRT{
		Proc: policy.Proc{
			ID: p.ID, Arrival: arrival, Inst: process.NewInstance(p),
			InFlight: make(map[int]string),
		},
		def:          p,
		origin:       origin,
		prepared:     make(map[int]preparedTx),
		attempts:     make(map[int]int),
		start:        e.clock,
		blockedSince: -1,
	}
	e.allProcs = append(e.allProcs, p)
	e.outcomes[p.ID] = &Outcome{Start: e.clock}
	return rt
}

// admit moves pending processes into the running set per the policy and
// reports whether any process was admitted.
func (e *Engine) admit() bool {
	var keep []*procRT
	admitted := false
	for _, rt := range e.pending {
		if e.mayStart(rt) {
			e.pol.Admit(&rt.Proc)
			e.byID[rt.ID] = rt
			rt.start = e.clock
			e.outcomes[rt.ID].Start = e.clock
			e.append(wal.Record{Type: wal.RecStart, Proc: string(rt.ID)})
			e.reg.Inc(metrics.ProcsAdmitted)
			e.reg.Trace(metrics.TAdmit, e.clock, string(rt.ID), 0, "", "")
			admitted = true
		} else {
			keep = append(keep, rt)
		}
	}
	e.pending = keep
	return admitted
}

// nextArrival returns the earliest future arrival among pending jobs.
func (e *Engine) nextArrival() (int64, bool) {
	found := false
	var min int64
	for _, rt := range e.pending {
		if rt.arrivalTime > e.clock && (!found || rt.arrivalTime < min) {
			min = rt.arrivalTime
			found = true
		}
	}
	return min, found
}

// mayStart implements the admission policies.
func (e *Engine) mayStart(rt *procRT) bool {
	if rt.arrivalTime > e.clock {
		return false
	}
	switch e.cfg.Mode {
	case Serial:
		for range e.active {
			return false
		}
		return true
	case Conservative:
		// Admit only when the process's full service footprint does not
		// conflict with that of any running process.
		mine := Footprint(rt.def)
		for o := range e.active {
			for _, s1 := range mine {
				for _, s2 := range Footprint(o.def) {
					if e.table.Conflicts(s1, s2) {
						return false
					}
				}
			}
		}
		return true
	default:
		return true
	}
}

// Footprint lists every service a process definition can touch,
// including compensations (used by conservative admission).
func Footprint(p *process.Process) []string {
	var out []string
	for _, a := range p.Activities() {
		out = append(out, a.Service)
		if a.Compensation != "" {
			out = append(out, a.Compensation)
		}
	}
	return out
}

func (e *Engine) allDone() bool {
	if len(e.pending) > 0 {
		return false
	}
	for range e.active {
		return false
	}
	return true
}

// cost returns the virtual duration of a service invocation.
func (e *Engine) cost(service string) int64 {
	spec, ok := e.fed.Spec(service)
	if !ok || spec.Cost < 1 {
		return 1
	}
	return int64(spec.Cost)
}

// dispatchAll attempts to make progress on every process; returns true
// when at least one new invocation was issued or terminal transition
// occurred.
func (e *Engine) dispatchAll() bool {
	progressed := false
	for rt := range e.active {
		if e.dispatchProc(rt) {
			progressed = true
		}
	}
	return progressed
}

func (e *Engine) dispatchProc(rt *procRT) bool {
	// Recovery steps run strictly sequentially and drain before a
	// pending abort is honoured (the instance's alternative bookkeeping
	// must settle before the completion is computed).
	if len(rt.Recovery) > 0 {
		if rt.StepBusy() {
			return false
		}
		return e.dispatchRecoveryStep(rt)
	}
	// Abort requested while work was in flight: start it when drained.
	if rt.abortPending && len(rt.InFlight) == 0 && !rt.StepBusy() && rt.Phase != policy.Aborting {
		if err := e.beginAbort(rt); err == nil {
			return true
		}
		return false
	}
	if rt.Phase == policy.Aborting {
		if rt.StepBusy() || len(rt.InFlight) > 0 {
			return false
		}
		e.finishAbort(rt)
		return true
	}
	// Regular execution: finish or dispatch frontier activities.
	if rt.Inst.Done() && len(rt.InFlight) == 0 {
		return e.tryFinish(rt)
	}
	progressed := false
	for _, local := range rt.Inst.Frontier() {
		if _, inFlight := rt.InFlight[local]; inFlight {
			continue
		}
		a := rt.def.Activity(local)
		// Intra-process: all predecessors must be fully committed (a
		// prepared non-compensatable defers its successors, so that a
		// rolled-back prepared transaction never has committed
		// successors).
		if !e.predsCommitted(rt, local) {
			continue
		}
		if ok, why := e.pol.MayDispatch(rt.ID, a); !ok {
			e.metrics.PolicyWaits++
			e.reg.Inc(metrics.InvokePolicyBlocked)
			e.reg.Trace(metrics.TPolicyWait, e.clock, string(rt.ID), local, a.Service, why)
			continue
		}
		if e.invoke(rt, local, a.Service, a.Kind, false, process.Step{}) {
			progressed = true
		}
	}
	return progressed
}

func (e *Engine) predsCommitted(rt *procRT, local int) bool {
	for _, h := range rt.def.Preds(local) {
		if rt.Inst.Status(h) != process.Committed {
			return false
		}
	}
	return true
}

// invoke issues a subsystem invocation and schedules its completion.
// In weak-order mode, regular activity invocations never block on
// subsystem locks: conflicting in-doubt transactions become commit-order
// dependencies instead (Section 3.6). Recovery steps always use the
// strong order.
func (e *Engine) invoke(rt *procRT, local int, service string, kind activity.Kind, isStep bool, step process.Step) bool {
	var res *subsystem.Result
	var err error
	var extraLat int64
	weak := e.cfg.WeakOrder && !isStep &&
		(e.cfg.Mode == PRED || e.cfg.Mode == PREDCascade)
	if weak {
		sub, ok := e.fed.Owner(service)
		if !ok {
			panic(fmt.Sprintf("scheduler: unknown service %q", service))
		}
		var deps []subsystem.TxID
		res, deps, err = sub.InvokeWeak(string(rt.origin), service)
		// A commit-order dependency is only safe on a transaction that
		// resolves at its own completion — a compensatable activity's
		// local transaction. Non-compensatable ones may have their 2PC
		// commit deferred until *our* process terminates (Lemma 1),
		// which would deadlock the commit order. On such a dependency,
		// roll back and wait like a strong lock conflict.
		if err == nil {
			for _, d := range deps {
				svc, ok := sub.TxService(d)
				risky := !ok
				if ok {
					if spec, found := e.fed.Spec(svc); found {
						risky = spec.Kind != activity.Compensatable && spec.Kind != activity.Compensation
					}
				}
				if risky {
					if rbErr := sub.AbortPrepared(res.Tx); rbErr != nil {
						panic(fmt.Sprintf("scheduler: weak fallback rollback: %v", rbErr))
					}
					e.metrics.Invocations++
					e.metrics.LockWaits++
					e.reg.Inc(metrics.InvokeLockBlocked)
					e.reg.Trace(metrics.TLockWait, e.clock, string(rt.ID), local, service, "weak-order dependency on non-compensatable")
					return false
				}
			}
		}
		e.metrics.WeakDeps += int64(len(deps))
		e.reg.Add(metrics.WeakDeps, int64(len(deps)))
	} else if e.cfg.Resilience != nil {
		// Idempotency key: fresh per logical invocation (keySeq) and per
		// incarnation (rt.ID carries the restart suffix), reused by the
		// layer across transport attempts of this one invocation.
		key := fmt.Sprintf("%s#%d", rt.ID, rt.keySeq)
		rt.keySeq++
		res, extraLat, err = e.cfg.Resilience.InvokeResilient(
			string(rt.origin), service, kind, subsystem.Prepare, key)
	} else {
		res, err = e.fed.Invoke(string(rt.origin), service, subsystem.Prepare)
	}
	e.metrics.Invocations++
	switch {
	case errors.Is(err, subsystem.ErrLocked):
		e.metrics.LockWaits++
		e.reg.Inc(metrics.InvokeLockBlocked)
		e.reg.Trace(metrics.TLockWait, e.clock, string(rt.ID), local, service, "")
		return false
	case subsystem.IsInvocationFailure(err):
		// A genuine local abort, or a transport failure the resilience
		// layer could not mask (retry budget exhausted, circuit open, or
		// a non-retriable kind). Either way the invocation provably left
		// no prepared transaction: take the failed-completion path —
		// retriable activities are re-invoked, others go to ◁
		// alternatives / backward recovery.
		res = nil
	case err != nil:
		panic(fmt.Sprintf("scheduler: invoke %s/%s: %v", rt.ID, service, err))
	}
	e.seq++
	c := &completion{
		at: e.clock + e.cost(service) + extraLat, seq: e.seq,
		proc: rt.ID, isStep: isStep, step: step,
		local: local, service: service, kind: kind,
		res: res, failed: res == nil, weak: weak,
	}
	if isStep {
		rt.StepSvc = service
	} else {
		rt.InFlight[local] = service
	}
	e.bump()
	e.append(wal.Record{
		Type: wal.RecDispatch, Proc: string(rt.ID), Local: local, Service: service,
	})
	e.reg.Inc(metrics.InvokeDispatched)
	e.reg.Trace(metrics.TDispatch, e.clock, string(rt.ID), local, service, "")
	heap.Push(&e.queue, c)
	return true
}

// handleCompletion processes one finished invocation.
func (e *Engine) handleCompletion(c *completion) error {
	rt := e.byID[c.proc]
	if rt == nil {
		return fmt.Errorf("scheduler: completion for unknown process %s", c.proc)
	}
	if c.isStep {
		return e.handleStepCompletion(rt, c)
	}
	delete(rt.InFlight, c.local)
	e.bump()
	if c.tries == 0 {
		// First completion of this invocation (not a commit-order wait
		// retry): record the per-service latency.
		e.reg.ObserveService(c.service, e.cost(c.service))
	}

	// Orphaned completion: while the invocation was in flight, its
	// branch was abandoned or the process began aborting (a parallel
	// sibling failed). The outcome is discarded; a successful local
	// transaction is rolled back — atomicity guarantees no effects.
	if st := rt.Inst.Status(c.local); st != process.Pending {
		if !c.failed && c.res != nil {
			sub, _ := e.fed.Owner(c.service)
			if err := sub.AbortPrepared(c.res.Tx); err == nil {
				e.metrics.Rollbacks++
				e.reg.Inc(metrics.RollbacksOrphaned)
				e.reg.Trace(metrics.TRollback, e.clock, string(rt.ID), c.local, c.service, "orphaned completion")
				e.append(wal.Record{
					Type: wal.RecResolved, Proc: string(rt.ID), Local: c.local,
					Service: c.service, Subsystem: sub.Name(), Tx: int64(c.res.Tx), Commit: false,
				})
			}
		}
		return nil
	}

	if c.failed {
		if c.kind.GuaranteedToCommit() {
			// Transient failure of a retriable activity: re-invoke.
			e.metrics.Retries++
			e.reg.Inc(metrics.RetriesTransient)
			e.reg.Trace(metrics.TRetry, e.clock, string(rt.ID), c.local, c.service, "")
			rt.attempts[c.local]++
			e.append(wal.Record{Type: wal.RecOutcome, Proc: string(rt.ID), Local: c.local, Service: c.service, Outcome: "aborted"})
			return nil
		}
		return e.handlePermanentFailure(rt, c)
	}

	// Success: the local transaction is prepared at the subsystem.
	e.append(wal.Record{
		Type: wal.RecOutcome, Proc: string(rt.ID), Local: c.local, Service: c.service,
		Subsystem: e.subsystemOf(c.service), Tx: int64(c.res.Tx), Outcome: "prepared",
	})
	if e.commitImmediately(rt, c.kind) {
		sub, _ := e.fed.Owner(c.service)
		if c.weak {
			// Commit-order serializability (Section 3.6): the commit
			// may have to wait for weakly preceding transactions, or
			// the invocation may have to be redone when one of them
			// aborted.
			switch err := sub.WeakCommittable(c.res.Tx); {
			case errors.Is(err, subsystem.ErrOrder):
				c.tries++
				if c.tries > 100000 {
					return fmt.Errorf("scheduler: weak commit of %s/%s starved (commit-order wait)", rt.ID, c.service)
				}
				e.metrics.WeakOrderWaits++
				e.reg.Inc(metrics.WeakOrderWaits)
				e.reg.Trace(metrics.TWeakWait, e.clock, string(rt.ID), c.local, c.service, "")
				e.seq++
				c.at = e.clock + 1
				c.seq = e.seq
				rt.InFlight[c.local] = c.service // still occupies its slot
				heap.Push(&e.queue, c)
				return nil
			case errors.Is(err, subsystem.ErrDependencyAborted):
				e.metrics.WeakRestarts++
				e.reg.Inc(metrics.WeakRestarts)
				e.reg.Trace(metrics.TWeakRestart, e.clock, string(rt.ID), c.local, c.service, "")
				if err := sub.AbortPrepared(c.res.Tx); err != nil {
					return fmt.Errorf("scheduler: weak rollback %s/%s: %w", rt.ID, c.service, err)
				}
				// The activity stays pending and is simply re-invoked;
				// this is not a failure of the process (Section 3.6).
				return nil
			case err != nil:
				return fmt.Errorf("scheduler: weak commit %s/%s: %w", rt.ID, c.service, err)
			}
		}
		if err := sub.CommitPrepared(c.res.Tx); err != nil {
			return fmt.Errorf("scheduler: commit %s/%s: %w", rt.ID, c.service, err)
		}
		e.append(wal.Record{
			Type: wal.RecResolved, Proc: string(rt.ID), Local: c.local,
			Service: c.service, Subsystem: sub.Name(), Tx: int64(c.res.Tx), Commit: true,
		})
		if err := rt.Inst.MarkCommitted(c.local); err != nil {
			return fmt.Errorf("scheduler: %w", err)
		}
		e.pol.AppendEvent(&policy.Event{
			Seq: c.seq, Proc: rt.ID, Local: c.local, Service: c.service, Kind: c.kind, Typ: schedule.Invoke,
		})
		e.reg.Inc(metrics.CommitsImmediate)
		e.reg.Trace(metrics.TCommit, e.clock, string(rt.ID), c.local, c.service, "")
	} else {
		// Deferred commit (Lemma 1): hold the prepared transaction.
		e.metrics.Deferrals++
		e.reg.Inc(metrics.CommitsDeferred)
		if e.reg != nil {
			e.reg.Trace(metrics.TDeferCommit, e.clock, string(rt.ID), c.local, c.service, e.pol.FirstActivePred(rt.ID))
		}
		if err := rt.Inst.MarkPrepared(c.local); err != nil {
			return fmt.Errorf("scheduler: %w", err)
		}
		sub, _ := e.fed.Owner(c.service)
		rt.prepared[c.local] = preparedTx{sub: sub, tx: c.res.Tx, service: c.service, seq: c.seq, weak: c.weak}
		e.pol.AppendEvent(&policy.Event{
			Seq: c.seq, Proc: rt.ID, Local: c.local, Service: c.service, Kind: c.kind,
			Typ: schedule.Invoke, Tentative: true,
		})
	}
	return nil
}

// commitImmediately decides whether an activity's local transaction
// commits right at completion. Compensatable activities always commit
// (they are undoable); non-compensatable ones commit immediately only
// when the mode ignores recovery (CCOnly) or never interleaves
// (Serial/Conservative), or when the process has no active conflicting
// predecessor (Lemma 1's deferral condition is already satisfied).
func (e *Engine) commitImmediately(rt *procRT, kind activity.Kind) bool {
	if kind == activity.Compensatable {
		return true
	}
	switch e.cfg.Mode {
	case CCOnly, Serial, Conservative:
		return true
	default:
		return !e.pol.HasActiveConflictPred(rt.ID)
	}
}

// subsystemOf names the owning subsystem of a service.
func (e *Engine) subsystemOf(service string) string {
	if sub, ok := e.fed.Owner(service); ok {
		return sub.Name()
	}
	return ""
}

// handlePermanentFailure reacts to the definitive failure of a
// compensatable or pivot activity (Definition 4).
func (e *Engine) handlePermanentFailure(rt *procRT, c *completion) error {
	e.append(wal.Record{Type: wal.RecFailed, Proc: string(rt.ID), Local: c.local, Service: c.service})
	e.reg.Trace(metrics.TFail, e.clock, string(rt.ID), c.local, c.service, "")
	e.seq++
	e.pol.AppendEvent(&policy.Event{
		Seq: e.seq, Proc: rt.ID, Local: c.local, Service: c.service, Kind: c.kind, Typ: schedule.FailedInvoke,
	})
	plan, err := rt.Inst.MarkFailed(c.local)
	if err != nil {
		return fmt.Errorf("scheduler: %w", err)
	}
	if rt.abortPending {
		// An abort is already queued; its completion supersedes the
		// failure's local plan.
		return nil
	}
	if plan.Abort {
		rt.restartable = false
		rt.Phase = policy.Aborting
		rt.Recovery = plan.Steps
		e.append(wal.Record{Type: wal.RecAbortBegin, Proc: string(rt.ID)})
		e.reg.Inc(metrics.BackwardRecoveries)
		e.reg.Trace(metrics.TBackward, e.clock, string(rt.ID), c.local, c.service, "")
		e.seq++
		e.pol.AppendEvent(&policy.Event{Seq: e.seq, Proc: rt.ID, Typ: schedule.AbortBegin})
		e.cascadeDependents(rt)
		return nil
	}
	rt.Recovery = plan.Steps
	e.reg.Inc(metrics.ForwardRecoveries)
	e.reg.Trace(metrics.TForward, e.clock, string(rt.ID), c.local, c.service, "")
	return nil
}

// beginAbort starts the abort A_i of a process, computing its completion
// C(P_i) and queueing the steps.
func (e *Engine) beginAbort(rt *procRT) error {
	steps, err := rt.Inst.Abort()
	if err != nil {
		return fmt.Errorf("scheduler: abort %s: %w", rt.ID, err)
	}
	rt.abortPending = false
	rt.Phase = policy.Aborting
	rt.Recovery = steps
	e.append(wal.Record{Type: wal.RecAbortBegin, Proc: string(rt.ID)})
	e.reg.Inc(metrics.BackwardRecoveries)
	e.reg.Trace(metrics.TBackward, e.clock, string(rt.ID), 0, "", "")
	e.seq++
	e.pol.AppendEvent(&policy.Event{Seq: e.seq, Proc: rt.ID, Typ: schedule.AbortBegin})
	e.cascadeDependents(rt)
	return nil
}

// cascadeDependents aborts active processes that depend on rt through
// conflict edges when rt's completion will compensate conflicting work
// (cascading aborts, only possible in PREDCascade mode). The Lemma-2
// dispatch guard makes the dependents' compensations execute before
// rt's own.
func (e *Engine) cascadeDependents(rt *procRT) {
	for _, id := range e.pol.CascadeVictims(rt.ID, rt.Recovery) {
		q := e.byID[id]
		if q == nil || q.Phase != policy.Running || q.abortPending {
			continue
		}
		e.metrics.Cascades++
		e.reg.Inc(metrics.CascadeAborts)
		e.reg.Trace(metrics.TCascade, e.clock, string(q.ID), 0, "", string(rt.ID))
		q.abortPending = true
		q.restartable = true
	}
}

// dispatchRecoveryStep issues the next queued recovery step, honouring
// the cross-process ordering constraints of Lemmas 2 and 3.
func (e *Engine) dispatchRecoveryStep(rt *procRT) bool {
	st := rt.Recovery[0]
	switch st.Kind {
	case process.StepAbortPrepared:
		// Resolve immediately (no subsystem work to simulate).
		rt.Recovery = rt.Recovery[1:]
		ptx, ok := rt.prepared[st.Local]
		if ok {
			if err := ptx.sub.AbortPrepared(ptx.tx); err == nil {
				e.metrics.Rollbacks++
				e.reg.Inc(metrics.DeferredRolledBack)
				e.reg.Trace(metrics.TRollback, e.clock, string(rt.ID), st.Local, ptx.service, "abandoned branch")
				e.append(wal.Record{
					Type: wal.RecResolved, Proc: string(rt.ID), Local: st.Local,
					Service: ptx.service, Subsystem: ptx.sub.Name(), Tx: int64(ptx.tx), Commit: false,
				})
			}
			delete(rt.prepared, st.Local)
		}
		// Erase the tentative event and its edges.
		e.pol.EraseTentative(rt.ID, st.Local)
		_ = rt.Inst.ApplyStep(st)
		e.bump()
		return true
	case process.StepCompensate:
		if e.cfg.Mode != CCOnly && !e.pol.Lemma2Clear(rt.ID, st) {
			e.metrics.PolicyWaits++
			return false
		}
		return e.invoke(rt, st.Local, st.Service, activity.Compensation, true, st)
	case process.StepInvoke:
		if e.cfg.Mode != CCOnly {
			if !e.pol.Lemma3Clear(rt.ID, st) {
				e.debugDeny(rt, st, "lemma3")
				e.metrics.PolicyWaits++
				return false
			}
			if !e.pol.Lemma1ClearForward(rt.ID, st) {
				e.debugDeny(rt, st, "lemma1fwd")
				e.metrics.PolicyWaits++
				return false
			}
			if !e.pol.StepForcedClear(rt.ID, st) {
				e.debugDeny(rt, st, "forced-cycle")
				e.metrics.PolicyWaits++
				return false
			}
			if o, defer2 := e.pol.DeferToAborting(rt.ID, st); defer2 {
				e.debugDeny(rt, st, fmt.Sprintf("defer-to-%s", o))
				e.metrics.PolicyWaits++
				return false
			}
		}
		a := rt.def.Activity(st.Local)
		return e.invoke(rt, st.Local, st.Service, a.Kind, true, st)
	}
	return false
}

// handleStepCompletion finishes a recovery-step invocation.
func (e *Engine) handleStepCompletion(rt *procRT, c *completion) error {
	rt.StepSvc = ""
	e.bump()
	e.reg.ObserveService(c.service, e.cost(c.service))
	if c.failed {
		// Compensations and forward-recovery activities are retriable;
		// transient failures are re-invoked.
		e.metrics.Retries++
		e.reg.Inc(metrics.RetriesTransient)
		e.reg.Trace(metrics.TRetry, e.clock, string(rt.ID), c.local, c.service, "recovery step")
		return nil
	}
	// Log the step outcome, then commit its local transaction. The
	// record carries the subsystem and transaction id so that a crash
	// in the window between the force-log and the commit is repaired by
	// recovery's redo rule (Analyze collects these into
	// ProcImage.RedoCommit) instead of presuming abort.
	sub, _ := e.fed.Owner(c.service)
	switch c.step.Kind {
	case process.StepCompensate:
		e.append(wal.Record{
			Type: wal.RecCompensate, Proc: string(rt.ID), Local: c.local, Service: c.service,
			Subsystem: sub.Name(), Tx: int64(c.res.Tx),
		})
	case process.StepInvoke:
		e.append(wal.Record{
			Type: wal.RecOutcome, Proc: string(rt.ID), Local: c.local, Service: c.service,
			Subsystem: sub.Name(), Tx: int64(c.res.Tx), Outcome: "committed",
		})
	}
	if err := sub.CommitPrepared(c.res.Tx); err != nil {
		return fmt.Errorf("scheduler: commit step %s/%s: %w", rt.ID, c.service, err)
	}
	if len(rt.Recovery) > 0 && rt.Recovery[0] == c.step {
		rt.Recovery = rt.Recovery[1:]
	}
	switch c.step.Kind {
	case process.StepCompensate:
		e.metrics.Compensations++
		e.reg.Inc(metrics.CompensationsIssued)
		e.reg.Trace(metrics.TCompensate, e.clock, string(rt.ID), c.local, c.service, "")
		// The base event stops contributing conflicts.
		e.pol.MarkCompensated(rt.ID, c.local)
		e.pol.AppendEvent(&policy.Event{
			Seq: c.seq, Proc: rt.ID, Local: c.local, Service: c.service,
			Kind: activity.Compensation, Typ: schedule.Invoke, Inverse: true,
		})
	case process.StepInvoke:
		e.reg.Trace(metrics.TRecoveryStep, e.clock, string(rt.ID), c.local, c.service, "")
		e.pol.AppendEvent(&policy.Event{
			Seq: c.seq, Proc: rt.ID, Local: c.local, Service: c.service, Kind: c.kind, Typ: schedule.Invoke,
		})
	}
	if err := rt.Inst.ApplyStep(c.step); err != nil {
		return fmt.Errorf("scheduler: %w", err)
	}
	return nil
}

// tryFinish commits a process whose selected path has fully executed:
// the prepared non-compensatable activities are committed atomically
// via 2PC once no active conflicting predecessor remains (Lemma 1),
// then C_i is emitted.
func (e *Engine) tryFinish(rt *procRT) bool {
	if len(rt.prepared) > 0 {
		if e.pol.HasActiveConflictPred(rt.ID) {
			if rt.blockedSince < 0 {
				rt.blockedSince = e.clock
			}
			return false
		}
		if !e.commitPreparedSet(rt) {
			return false
		}
	}
	e.terminate(rt, true)
	return true
}

// commitPreparedSet performs the atomic 2PC commit of rt's prepared set.
func (e *Engine) commitPreparedSet(rt *procRT) bool {
	locals := make([]int, 0, len(rt.prepared))
	for l := range rt.prepared {
		// Skip transactions already marked for rollback (a failure plan
		// abandoned their branch; the queued StepAbortPrepared resolves
		// them).
		if rt.Inst.Status(l) == process.Prepared {
			locals = append(locals, l)
		}
	}
	sort.Ints(locals)
	if len(locals) == 0 {
		return true
	}
	// Weak-order preflight: every weakly invoked participant must be
	// committable (its commit-order predecessors committed). A still-
	// pending predecessor delays the whole set; an aborted predecessor
	// rolls the participant back for re-invocation.
	for _, l := range locals {
		ptx := rt.prepared[l]
		if !ptx.weak {
			continue
		}
		switch err := ptx.sub.WeakCommittable(ptx.tx); {
		case errors.Is(err, subsystem.ErrOrder):
			e.metrics.WeakOrderWaits++
			e.reg.Inc(metrics.WeakOrderWaits)
			e.reg.Trace(metrics.TWeakWait, e.clock, string(rt.ID), l, ptx.service, "")
			return false
		case errors.Is(err, subsystem.ErrDependencyAborted):
			e.metrics.WeakRestarts++
			e.reg.Inc(metrics.WeakRestarts)
			e.reg.Inc(metrics.DeferredRolledBack)
			e.reg.Trace(metrics.TWeakRestart, e.clock, string(rt.ID), l, ptx.service, "")
			if err := ptx.sub.AbortPrepared(ptx.tx); err != nil {
				panic(fmt.Sprintf("scheduler: weak rollback: %v", err))
			}
			if err := rt.Inst.ResetPrepared(l); err != nil {
				panic(fmt.Sprintf("scheduler: %v", err))
			}
			e.pol.EraseTentative(rt.ID, l)
			delete(rt.prepared, l)
			e.bump()
			return false // the activity re-invokes; try again later
		case err != nil:
			panic(fmt.Sprintf("scheduler: weak committable: %v", err))
		}
	}
	parts := make([]twopc.Participant, 0, len(locals))
	for _, l := range locals {
		ptx := rt.prepared[l]
		parts = append(parts, twopc.Participant{
			Sub: ptx.sub, Tx: ptx.tx, Proc: string(rt.ID), Local: l, Service: ptx.service,
		})
	}
	if err := e.coord.CommitAll(string(rt.ID), parts); err != nil {
		panic(fmt.Sprintf("scheduler: 2PC commit of %s: %v", rt.ID, err))
	}
	for _, l := range locals {
		e.metrics.TwoPCCommits++
		e.reg.Inc(metrics.DeferredCommitted2PC)
		e.reg.Trace(metrics.TTwoPCCommit, e.clock, string(rt.ID), l, rt.prepared[l].service, "")
		if err := rt.Inst.MarkCommitted(l); err != nil {
			panic(fmt.Sprintf("scheduler: %v", err))
		}
		e.seq++
		e.pol.FinalizeTentative(rt.ID, l, e.seq)
		delete(rt.prepared, l)
	}
	if rt.blockedSince >= 0 {
		e.reg.Observe(metrics.HistProcBlocked, e.clock-rt.blockedSince)
		rt.blockedSince = -1
	}
	e.bump()
	return true
}

// commitDeferredIfPossible is called when a process terminates: other
// processes waiting on it may now commit their prepared sets and
// continue (their successors were deferred).
func (e *Engine) commitDeferredIfPossible() {
	for rt := range e.active {
		if rt.Phase != policy.Running || len(rt.prepared) == 0 || rt.abortPending || len(rt.Recovery) > 0 {
			continue
		}
		if !e.pol.HasActiveConflictPred(rt.ID) {
			e.commitPreparedSet(rt)
		}
	}
}

// finishAbort concludes an abort whose completion steps have drained.
func (e *Engine) finishAbort(rt *procRT) {
	// Roll back any leftover prepared transactions (safety net; the
	// completion normally contains explicit StepAbortPrepared steps).
	for l, ptx := range rt.prepared {
		if err := ptx.sub.AbortPrepared(ptx.tx); err == nil {
			e.metrics.Rollbacks++
			e.reg.Inc(metrics.DeferredRolledBack)
			e.reg.Trace(metrics.TRollback, e.clock, string(rt.ID), l, ptx.service, "abort leftover")
			e.append(wal.Record{
				Type: wal.RecResolved, Proc: string(rt.ID), Local: l,
				Service: ptx.service, Subsystem: ptx.sub.Name(), Tx: int64(ptx.tx), Commit: false,
			})
		}
		e.pol.EraseTentative(rt.ID, l)
		delete(rt.prepared, l)
	}
	e.terminate(rt, false)
	if rt.restartable && rt.restarts < e.cfg.MaxRestarts {
		e.restart(rt)
	}
}

// terminate emits the terminal event of a process.
func (e *Engine) terminate(rt *procRT, committed bool) {
	rt.Phase = policy.Done
	rt.end = e.clock
	out := e.outcomes[rt.ID]
	out.End = e.clock
	out.Committed = committed
	out.Aborted = !committed
	fate := "aborted"
	if committed {
		e.metrics.CommittedProcs++
		e.reg.Inc(metrics.ProcsCommitted)
		fate = "committed"
	} else {
		e.metrics.AbortedProcs++
		e.reg.Inc(metrics.ProcsAborted)
	}
	e.reg.Observe(metrics.HistProcDuration, e.clock-rt.start)
	e.reg.Trace(metrics.TTerminate, e.clock, string(rt.ID), 0, "", fate)
	e.append(wal.Record{Type: wal.RecTerminate, Proc: string(rt.ID), Committed: committed})
	e.seq++
	e.pol.AppendEvent(&policy.Event{Seq: e.seq, Proc: rt.ID, Typ: schedule.Terminate, Committed: committed})
	rt.Inst.MarkTerminated(committed)
	e.commitDeferredIfPossible()
}

// restart re-enters an aborted process as a fresh instance under a
// derived id.
func (e *Engine) restart(rt *procRT) {
	e.metrics.Restarts++
	e.reg.Inc(metrics.ProcsRestarted)
	newID := process.ID(fmt.Sprintf("%s+r%d", rt.base, rt.restarts+1))
	def := rt.def.WithID(newID)
	nrt := e.newRT(def, rt.Arrival, rt.origin)
	nrt.base = rt.base
	nrt.restarts = rt.restarts + 1
	// Exponential backoff before re-entry, so the contention that
	// caused the abort can drain first.
	nrt.arrivalTime = e.clock + int64(4<<nrt.restarts)
	e.outcomes[newID].Restarts = nrt.restarts
	e.pending = append(e.pending, nrt) // admitted (and logged) at its backoff arrival
}

// debugDeny traces step denials when DebugFirstStall is on.
func (e *Engine) debugDeny(rt *procRT, st process.Step, why string) {
	if e.cfg.DebugFirstStall && e.metrics.PolicyWaits%500 == 0 {
		fmt.Printf("DENY step %s/%v: %s (clock %d)\n", rt.ID, st, why, e.clock)
	}
}

// stallDump renders the engine state for stall diagnostics.
func (e *Engine) stallDump() string {
	s := fmt.Sprintf("clock=%d pending=%d\n", e.clock, len(e.pending))
	for rt := range e.active {
		s += fmt.Sprintf("  %s state=%d mode=%v done=%v running=%d recovery=%d busy=%v abortPending=%v prepared=%d frontier=%v\n",
			rt.ID, rt.Phase, rt.Inst.Mode(), rt.Inst.Done(), len(rt.InFlight), len(rt.Recovery), rt.StepBusy(), rt.abortPending, len(rt.prepared), rt.Inst.Frontier())
		if len(rt.Recovery) > 0 {
			s += fmt.Sprintf("    next step: %v\n", rt.Recovery[0])
		}
	}
	for _, k := range e.pol.EdgeList() {
		s += fmt.Sprintf("  edge %s->%s\n", k[0], k[1])
	}
	for sub, recs := range e.fed.InDoubt() {
		s += fmt.Sprintf("  in-doubt at %s: %v\n", sub, recs)
	}
	return s
}

// resolveStall aborts one blocked process to break a scheduling stall.
func (e *Engine) resolveStall() bool {
	var victim *procRT
	for rt := range e.active {
		if rt.Phase != policy.Running || len(rt.InFlight) > 0 || rt.StepBusy() || rt.abortPending {
			continue
		}
		if rt.Inst.Done() {
			continue // waiting to finish, not a dispatch stall
		}
		if victim == nil || rt.Arrival > victim.Arrival {
			victim = rt
		}
	}
	if victim == nil {
		// A done process blocked on its deferred 2PC commit can still
		// deadlock with an aborting process's completion; abort it too
		// (it restarts afterwards).
		for rt := range e.active {
			if rt.Phase != policy.Running || len(rt.InFlight) > 0 || rt.StepBusy() || rt.abortPending {
				continue
			}
			if rt.Inst.Done() && len(rt.prepared) > 0 && e.pol.HasActiveConflictPred(rt.ID) {
				if victim == nil || rt.Arrival > victim.Arrival {
					victim = rt
				}
			}
		}
	}
	if victim == nil {
		return false
	}
	if e.cfg.DebugFirstStall && e.metrics.VictimAborts == 0 {
		fmt.Printf("FIRST STALL victim=%s\n%s\n", victim.ID, e.stallDump())
	}
	e.metrics.VictimAborts++
	e.reg.Inc(metrics.VictimAborts)
	e.reg.Trace(metrics.TVictim, e.clock, string(victim.ID), 0, "", "stall resolution")
	victim.restartable = true
	victim.abortPending = true
	return e.dispatchProc(victim)
}

// buildSchedule materializes the observed process schedule from the
// finalized events.
func (e *Engine) buildSchedule() *schedule.Schedule {
	return e.pol.BuildSchedule(e.allProcs)
}
