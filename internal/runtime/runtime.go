// Package runtime is the concurrent execution engine for transactional
// process management: one goroutine per process drives invocations
// against the (already internally locked) subsystems, while every
// scheduling decision — conflict-predecessor checks, Lemma-1 commit
// deferral, Lemma-2/3 recovery ordering, forced-order acyclicity — is
// taken inside a serial section over the pure policy layer
// (internal/scheduler/policy). The policy State owns the process table:
// each procRT embeds its policy.Proc, and the policy-side half of every
// lifecycle transition (commit-or-defer, failure and abort-begin,
// recovery-step completion, 2PC finalize, terminate) is a State method
// the federation hub shares.
//
// The sequential discrete-event engine (internal/scheduler) remains the
// reference oracle: both engines share the identical decision code but
// not the transition code, so a schedule the runtime produces differs
// from the oracle's only in interleaving, never in admissibility. The
// differential test in this package asserts exactly that: every
// concurrently observed schedule is PRED and per-process terminal
// outcomes match the oracle. Cascading aborts (PREDCascade) run on the
// sequential engine only.
//
// Concurrency structure (sharded):
//
//   - Processes are partitioned into *groups* — the connected
//     components of the job set over the conflict shards of the service
//     partition (policy.Partition). Two processes whose footprints hit
//     disjoint shard sets can never conflict, never block on each
//     other's item locks (a lock-blocking pair always conflicts, hence
//     shares a shard) and never gate each other's Lemma decisions, so
//     each group runs under its own mutex with its own policy.State
//     and the groups proceed fully in parallel.
//   - All group states share one frozen policy.Universe (immutable
//     after construction, safe for concurrent reads) and one global
//     atomic sequence counter, so the per-group histories merge into a
//     single observed schedule ordered by Seq.
//   - Admission control (worker cap, Serial/Conservative policies),
//     completion counting for restart backoff and the crash/error state
//     are global, guarded by a separate admission mutex. Lock order is
//     group mutex -> admission mutex; the admission mutex is a leaf.
//   - Subsystem work (Invoke + simulated service time) runs outside the
//     group lock; the in-flight invocation is registered first so
//     concurrent decisions see it as a survivor in the forced-order
//     graph. Lock ordering is group.mu -> subsystem.mu.
//   - Each group's condition variable is broadcast after every state
//     mutation of that group; blocked workers re-evaluate their gates.
//     Two stall breakers run per group: a precise park-time wait-for
//     analysis that victim-aborts a member of a closed wait cycle
//     immediately (without waiting for the rest of the group to go
//     idle), and the quiescence detector of the sequential engine as a
//     backstop for waits with incomplete edge information (item locks,
//     recovery-step gates), declared only when every live worker of the
//     group has re-evaluated at the current progress generation with
//     nothing in flight.
package runtime

import (
	"context"
	"errors"
	"fmt"
	gort "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"transproc/internal/activity"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
	"transproc/internal/twopc"
	"transproc/internal/wal"
)

// Config parameterizes a runtime run.
type Config struct {
	// Mode selects the scheduling policy. The runtime supports PRED,
	// Serial, Conservative and CCOnly; New rejects PREDCascade, and the
	// weak order of the sequential engine is not implemented here.
	Mode scheduler.Mode
	// Log is the write-ahead log; defaults to an in-memory log.
	Log wal.Log
	// Workers caps the number of concurrently admitted processes
	// (admission control). 0 means unlimited.
	Workers int
	// Tick is the real duration of one virtual cost unit of service
	// time. 0 means services complete without sleeping (maximum
	// interleaving pressure, minimum wall clock).
	Tick time.Duration
	// MaxRestarts bounds per-process restarts (default 8).
	MaxRestarts int
	// MaxStalls bounds stall-resolution victim aborts (default 256).
	MaxStalls int
	// Metrics is the observability registry; nil is a no-op sink.
	Metrics *metrics.Registry
	// Inject, when non-nil, is called at named crash points — the
	// dispatch gate ("runtime:dispatch") and, via the 2PC coordinator,
	// "twopc:after-decision" / "twopc:mid-resolve". A fault plan
	// (internal/fault) may panic through it with a crash sentinel; the
	// runtime recovers the sentinel, stops issuing work and WAL appends,
	// and Run returns scheduler.ErrCrashed with the partial result,
	// leaving log and subsystem state for scheduler.Recover. No-op when
	// nil.
	Inject func(point string)
	// CheckpointEvery, when positive, takes a fuzzy checkpoint
	// (wal.TakeCheckpoint) after every that many runtime force-log
	// appends. The checkpointer runs inside the appending group's
	// serial section while other groups keep appending — exactly the
	// fuzzy-checkpoint window the recovery path must tolerate. 0
	// disables.
	CheckpointEvery int
	// CheckpointLimit caps the checkpoints of one run (0 = unlimited).
	CheckpointLimit int
	// CompactOnCheckpoint rewrites the log as checkpoint + tail after
	// each checkpoint when the log supports it (wal.Compactor).
	CompactOnCheckpoint bool
	// GroupCommit, when enabled (MaxBatch > 0), wraps the log in a
	// batching appender (wal.GroupAppender): concurrent appends are
	// coalesced into one buffered write + fsync, acknowledged only
	// after the shared fsync. Checkpointing, compaction and the 2PC
	// coordinator all run through the same appender, so the log stays
	// one logical append stream.
	GroupCommit wal.GroupCommit
	// Resilience, when non-nil, routes activity invocations through a
	// resilience layer (internal/chaos) exactly as in the sequential
	// engine (scheduler.Config.Resilience): typed retries, breakers and
	// flaky transport at the invocation boundary; 2PC resolution and
	// recovery stay on the direct path.
	Resilience subsystem.ResilientInvoker
}

func (c Config) withDefaults() Config {
	if c.Log == nil {
		c.Log = wal.NewMemLog()
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 8
	}
	if c.MaxStalls == 0 {
		c.MaxStalls = 256
	}
	return c
}

// Result is the outcome of a concurrent run.
type Result struct {
	// Schedule is the observed process schedule (completion order under
	// the serial sections, merged by global sequence); check it with
	// PRED(), Serializable() and ProcessRecoverable().
	Schedule *schedule.Schedule
	Metrics  scheduler.Metrics
	Outcomes map[process.ID]*scheduler.Outcome
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// ShardGroups is the number of disjoint scheduling groups the run
	// partitioned its processes into — each ran under its own serial
	// section (1 means every process shared one lock).
	ShardGroups int
	// ConflictShards is the number of connected components of the
	// federation's conflict relation, the service-side upper bound on
	// ShardGroups.
	ConflictShards int
}

type preparedTx struct {
	sub     *subsystem.Subsystem
	tx      subsystem.TxID
	service string
}

// procRT is the runtime of one process; its fields, the embedded
// policy table entry included, are guarded by the owning group's mutex
// (the owning worker mutates them only under it).
type procRT struct {
	policy.Proc
	def          *process.Process
	origin       process.ID
	restarts     int
	abortPending bool
	restartable  bool
	prepared     map[int]preparedTx
	keySeq       int // idempotency-key counter (resilient invocations)
	start        time.Time
	adm          *admEntry

	// Stall machinery: lastEval is the group progress generation at
	// which this process last found nothing to do; parked marks it
	// blocked in cond.Wait; waitAlts, when non-nil, is the complete
	// wait-for disjunction recorded at the last sWait — the process can
	// proceed iff for SOME alternative ALL listed blockers acted
	// (terminated or released their locks). nil means the wait has
	// edges the policy cannot name and only the quiescence backstop may
	// break it. lockProbes lists the services found item-lock-blocked
	// during the last evaluation; extLock marks that at least one of
	// those locks is held by a process of ANOTHER group (commutative
	// services share items without conflicting, so lock waits may cross
	// the conflict partition) — such parks are registered globally and
	// woken by cross-group lock releases.
	lastEval   int64
	parked     bool
	waitAlts   [][]process.ID
	lockProbes []string
	extLock    bool
}

// waitEntry is one parked process's wait-for disjunction in the global
// wait graph, guarded by the admission mutex. The victim-selection
// fields (arrival, abortable) are snapshotted at park time so the
// detector never touches another group's procRT. An entry is trusted
// only while gen matches its group's progress generation — a woken but
// not yet rescheduled process is never mistaken for stuck.
type waitEntry struct {
	id        process.ID
	alts      [][]process.ID
	g         *shardGroup
	gen       int64
	arrival   int
	abortable bool
}

// admEntry is the admission-control view of one admitted incarnation,
// guarded by the admission mutex.
type admEntry struct {
	def  *process.Process
	fp   []string
	done bool
}

// shardGroup is one sharded serial section: the processes of one
// connected component of the conflict partition, their policy state and
// the group-local stall machinery. All fields below mu are guarded by
// it.
type shardGroup struct {
	r      *Runtime
	idx    int
	shards []int // conflict shards covered (diagnostics)

	mu       sync.Mutex
	cond     *sync.Cond
	pol      *policy.State          // owns the admission-ordered process table
	byID     map[process.ID]*procRT // admitted processes (includes done)
	live     int                    // workers currently driving a process of this group
	inFlight int                    // workers outside the lock doing subsystem work
	waiting  int                    // workers blocked on cond (diagnostics)

	// Quiescence detection, per group: progress increments on every
	// state change that could unblock a member; upToDate counts live
	// members whose lastEval equals the current generation. A stall is
	// declared only when every live member re-evaluated at the current
	// generation with nothing in flight. progress is atomic because the
	// global deadlock detector reads other groups' generations without
	// their mutex.
	progress atomic.Int64
	upToDate int

	metrics  scheduler.Metrics
	outcomes map[process.ID]*scheduler.Outcome
	allProcs []*process.Process
}

// Runtime executes processes concurrently, one goroutine each.
type Runtime struct {
	cfg   Config
	fed   *subsystem.Federation
	log   wal.Log
	coord *twopc.Coordinator
	reg   *metrics.Registry
	uni   *policy.Universe
	part  *policy.Partition

	groups []*shardGroup // built at Run start, immutable afterwards

	seq      atomic.Int64 // global event sequence across all groups
	stopped  atomic.Bool  // run crashed or failed; workers drain
	canceled atomic.Bool
	stopCh   chan struct{}
	stopOnce sync.Once

	// Admission state (worker cap, Serial/Conservative policy, restart
	// backoff). gmu is a leaf: taken under group mutexes, never the
	// other way around.
	gmu         sync.Mutex
	gcond       *sync.Cond
	err         error
	active      int // admitted and not done, across all groups
	completions int64
	victims     int
	admitted    []*admEntry

	// Global wait graph (also under gmu): waits holds the registered
	// wait-for disjunction of every parked process whose edges are
	// complete; pendingVictims carries victim designations to processes
	// parked in other groups (consumed on wake-up); liveByOrigin maps a
	// subsystem lock holder (origin id) to its live incarnation;
	// extWaiters counts parked processes blocked on another group's
	// item locks — lock releases nudge the wake-all supervisor only
	// while it is non-zero.
	waits          map[process.ID]*waitEntry
	pendingVictims map[process.ID]bool
	liveByOrigin   map[process.ID]process.ID
	extWaiters     int
	nudge          chan struct{}

	start time.Time

	// Checkpointing state (Config.CheckpointEvery); ckptMu is a leaf.
	ckptMu      sync.Mutex
	ckptAppends int
	ckptTaken   int
	ckptBusy    bool
}

// New creates a runtime over the federation.
func New(fed *subsystem.Federation, cfg Config) (*Runtime, error) {
	table, err := fed.ConflictTable()
	if err != nil {
		return nil, err
	}
	if cfg.Mode == scheduler.PREDCascade {
		return nil, fmt.Errorf("runtime: unsupported mode %v (cascading aborts run on the sequential engine only)", cfg.Mode)
	}
	cfg = cfg.withDefaults()
	if cfg.GroupCommit.Enabled() {
		cfg.Log = wal.NewGroupAppender(cfg.Log, cfg.GroupCommit, cfg.Inject)
	}
	r := &Runtime{
		cfg:   cfg,
		fed:   fed,
		log:   cfg.Log,
		coord: twopc.New(cfg.Log),
		reg:   cfg.Metrics,
		// The frozen universe covers every routable service (activity
		// services and auto-registered compensations); ValidateJobs
		// rejects anything outside it before a run starts.
		uni:            policy.NewUniverse(table, fed.Services()),
		part:           policy.NewPartition(table),
		stopCh:         make(chan struct{}),
		waits:          make(map[process.ID]*waitEntry),
		pendingVictims: make(map[process.ID]bool),
		liveByOrigin:   make(map[process.ID]process.ID),
		nudge:          make(chan struct{}, 1),
	}
	r.gcond = sync.NewCond(&r.gmu)
	if r.reg != nil {
		r.coord.Metrics = r.reg
		fed.SetMetrics(r.reg)
		if il, ok := r.log.(wal.Instrumented); ok {
			il.SetMetrics(r.reg)
		}
	}
	r.coord.Inject = cfg.Inject
	return r, nil
}

// fail records the first run-terminating error and stops the run; safe
// to call from any goroutine, with or without a group mutex held.
func (r *Runtime) fail(err error) {
	r.gmu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.gmu.Unlock()
	r.stop()
}

// stop flips the run into draining mode and triggers the wake-all
// supervisor (broadcasting other groups' condition variables directly
// here could deadlock: the caller may hold its own group's mutex).
func (r *Runtime) stop() {
	r.stopped.Store(true)
	r.stopOnce.Do(func() { close(r.stopCh) })
}

// wakeAll wakes every blocked worker. Broadcasts happen under the
// respective mutex so a worker between its stop-check and cond.Wait
// cannot miss the wake-up. Called only from supervisor goroutines that
// hold no locks.
func (r *Runtime) wakeAll() {
	for _, g := range r.groups {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
	r.gmu.Lock()
	r.gcond.Broadcast()
	r.gmu.Unlock()
}

// nudgeRelease wakes cross-group lock waiters after item locks were
// released (prepared transactions committed or rolled back). The
// releaser may hold its own group's mutex, so the wake-up goes through
// the nudge supervisor; the extWaiters gate keeps the common case (no
// cross-group waiter) free of wake-all storms. The gate cannot miss a
// waiter: parking re-probes the lock under gmu after incrementing
// extWaiters, so a release that observes extWaiters == 0 here happened
// before that re-probe and the parker saw the lock free.
func (r *Runtime) nudgeRelease() {
	r.gmu.Lock()
	ext := r.extWaiters > 0
	r.gmu.Unlock()
	if ext {
		select {
		case r.nudge <- struct{}{}:
		default:
		}
	}
}

// incarnation resolves a subsystem lock holder (an origin id) to its
// currently live incarnation, if any.
func (r *Runtime) incarnation(origin process.ID) (process.ID, bool) {
	r.gmu.Lock()
	id, ok := r.liveByOrigin[origin]
	r.gmu.Unlock()
	return id, ok
}

// guard runs f, converting an injected-crash sentinel panic into the
// run-terminating error every worker observes; ok is false when the
// crash tripped. Callers hold their group mutex — the panic must not
// unwind past the critical section, so it is caught right here.
// Non-sentinel panics propagate.
func (r *Runtime) guard(f func()) (ok bool) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		crash, isCrash := v.(interface{ InjectedCrash() string })
		if !isCrash {
			panic(v)
		}
		r.fail(fmt.Errorf("%w (injected at %s)", scheduler.ErrCrashed, crash.InjectedCrash()))
	}()
	f()
	return true
}

// append force-logs a record unless the run already crashed; false
// means the record did not reach the log (the caller must not apply
// the state change the record announces).
func (r *Runtime) append(rec wal.Record) bool {
	if r.stopped.Load() {
		return false
	}
	return r.guard(func() {
		r.log.Append(rec)
		r.maybeCheckpoint()
	})
}

// maybeCheckpoint takes a fuzzy checkpoint (and optionally compacts)
// once CheckpointEvery appends accumulated across all groups. The
// counter handshake runs under the leaf ckptMu; the checkpoint itself
// runs with only the calling group's mutex held, so other groups keep
// appending into the fuzzy window (Expand tolerates the post-horizon
// tail). Called from inside the append guard: an injected crash
// sentinel unwinds into guard's recover like any other force-log
// crash. A failed (non-crash) attempt is dropped — checkpointing never
// fails the run.
func (r *Runtime) maybeCheckpoint() {
	if r.cfg.CheckpointEvery <= 0 {
		return
	}
	r.ckptMu.Lock()
	r.ckptAppends++
	due := !r.ckptBusy && r.ckptAppends >= r.cfg.CheckpointEvery &&
		(r.cfg.CheckpointLimit <= 0 || r.ckptTaken < r.cfg.CheckpointLimit)
	if due {
		r.ckptBusy = true
		r.ckptAppends = 0
	}
	r.ckptMu.Unlock()
	if !due {
		return
	}
	defer func() {
		r.ckptMu.Lock()
		r.ckptBusy = false
		r.ckptMu.Unlock()
	}()
	if _, err := wal.TakeCheckpoint(r.log, r.uni.Conflicts, r.cfg.Inject, r.reg); err != nil {
		return
	}
	// Durable subsystems flush their pages at every checkpoint (the
	// store's write-ahead barrier forces the log first). Errors are
	// dropped like a failed checkpoint — the WAL stays authoritative.
	if r.fed.Durable() {
		r.fed.FlushStores()
	}
	r.ckptMu.Lock()
	r.ckptTaken++
	r.ckptMu.Unlock()
	if r.cfg.CompactOnCheckpoint {
		if c, ok := r.log.(wal.Compactor); ok {
			c.Compact(r.cfg.Inject)
		}
	}
}

// inject fires a named crash point; false when it tripped the crash.
func (r *Runtime) inject(point string) bool {
	if r.cfg.Inject == nil {
		return true
	}
	if r.stopped.Load() {
		return false
	}
	return r.guard(func() { r.cfg.Inject(point) })
}

// buildGroups partitions the jobs into shard groups: union-find over
// job indices, joining two jobs whenever their footprints share a
// conflict shard. Jobs with conflict-free footprints get singleton
// groups. Restart incarnations keep their footprint, so a process
// stays in its group across restarts. Returns the per-job group.
func (r *Runtime) buildGroups(jobs []scheduler.Job) []*shardGroup {
	parent := make([]int, len(jobs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	shardOwner := make(map[int]int)
	var buf []int
	for i, j := range jobs {
		buf = r.part.ShardSet(scheduler.Footprint(j.Proc), buf[:0])
		for _, s := range buf {
			if o, ok := shardOwner[s]; ok {
				union(i, o)
			} else {
				shardOwner[s] = i
			}
		}
	}
	byRoot := make(map[int]*shardGroup)
	jobGroup := make([]*shardGroup, len(jobs))
	for i := range jobs {
		root := find(i)
		g := byRoot[root]
		if g == nil {
			g = &shardGroup{
				r:        r,
				idx:      len(r.groups),
				pol:      policy.NewShard(r.uni, policy.Config{Mode: r.cfg.Mode}),
				byID:     make(map[process.ID]*procRT),
				outcomes: make(map[process.ID]*scheduler.Outcome),
			}
			g.cond = sync.NewCond(&g.mu)
			byRoot[root] = g
			r.groups = append(r.groups, g)
		}
		jobGroup[i] = g
	}
	for s, o := range shardOwner {
		g := byRoot[find(o)]
		g.shards = append(g.shards, s)
	}
	for _, g := range r.groups {
		sort.Ints(g.shards)
	}
	return jobGroup
}

// Run executes the jobs to completion. Arrival times are in ticks
// (real delay Arrival*Tick before the process contends for admission).
// The context cancels the run: in-flight service time finishes, no new
// work starts, and ctx.Err() is returned.
func (r *Runtime) Run(ctx context.Context, jobs []scheduler.Job) (*Result, error) {
	if err := scheduler.ValidateJobs(r.fed, jobs); err != nil {
		return nil, err
	}
	r.start = time.Now()
	jobGroup := r.buildGroups(jobs)

	// Supervisors: wake every blocked worker on cancellation or crash.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			r.canceled.Store(true)
			r.wakeAll()
		case <-watchDone:
		}
	}()
	go func() {
		select {
		case <-r.stopCh:
			r.wakeAll()
		case <-watchDone:
		}
	}()
	// Nudge supervisor: cross-group lock releases and victim
	// designations cannot broadcast a foreign group's condition variable
	// from under their own group mutex (lock order), so they poke this
	// goroutine, which holds no locks and may wake everyone.
	go func() {
		for {
			select {
			case <-r.nudge:
				r.wakeAll()
			case <-watchDone:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(g *shardGroup, idx int, job scheduler.Job) {
			defer wg.Done()
			r.worker(g, idx, job)
		}(jobGroup[i], i, j)
	}
	wg.Wait()
	close(watchDone)

	elapsed := time.Since(r.start)
	var m scheduler.Metrics
	outcomes := make(map[process.ID]*scheduler.Outcome)
	var allProcs []*process.Process
	states := make([]*policy.State, 0, len(r.groups))
	for _, g := range r.groups {
		g.mu.Lock()
		addMetrics(&m, &g.metrics)
		for id, o := range g.outcomes {
			outcomes[id] = o
		}
		allProcs = append(allProcs, g.allProcs...)
		states = append(states, g.pol)
		g.mu.Unlock()
	}
	if r.cfg.Tick > 0 {
		m.Makespan = int64(elapsed / r.cfg.Tick)
	} else {
		m.Makespan = elapsed.Nanoseconds()
	}
	res := &Result{
		Schedule:       policy.MergeSchedules(r.uni.Table(), allProcs, states),
		Metrics:        m,
		Outcomes:       outcomes,
		Elapsed:        elapsed,
		ShardGroups:    len(r.groups),
		ConflictShards: r.part.Shards(),
	}
	r.gmu.Lock()
	err := r.err
	r.gmu.Unlock()
	if err != nil {
		return res, err
	}
	if r.canceled.Load() {
		return res, ctx.Err()
	}
	return res, nil
}

// addMetrics accumulates one group's counters into the run total.
func addMetrics(dst, src *scheduler.Metrics) {
	dst.Invocations += src.Invocations
	dst.Retries += src.Retries
	dst.Compensations += src.Compensations
	dst.Rollbacks += src.Rollbacks
	dst.Deferrals += src.Deferrals
	dst.TwoPCCommits += src.TwoPCCommits
	dst.LockWaits += src.LockWaits
	dst.PolicyWaits += src.PolicyWaits
	dst.Cascades += src.Cascades
	dst.WeakDeps += src.WeakDeps
	dst.WeakOrderWaits += src.WeakOrderWaits
	dst.WeakRestarts += src.WeakRestarts
	dst.Restarts += src.Restarts
	dst.VictimAborts += src.VictimAborts
	dst.CommittedProcs += src.CommittedProcs
	dst.AbortedProcs += src.AbortedProcs
}

// active iterates the group's non-terminated processes in admission
// order.
func (g *shardGroup) active(yield func(*procRT) bool) {
	for _, p := range g.pol.Procs() {
		if p.Phase != policy.Done && !yield(g.byID[p.ID]) {
			return
		}
	}
}

// bump advances the group's progress generation after a state change
// that may unblock other members, and wakes them to re-evaluate.
// Called with g.mu held.
func (g *shardGroup) bump() {
	g.progress.Add(1)
	g.upToDate = 0
	g.cond.Broadcast()
}

// sleepTicks simulates service time. Kernel timer granularity is on
// the order of a millisecond, which would inflate every
// sub-millisecond service time several-fold and make throughput
// numbers measure timer resolution instead of scheduling — short
// waits therefore yield-spin on the monotonic clock, which keeps the
// wait accurate while still ceding the CPU to runnable workers.
func (r *Runtime) sleepTicks(n int64) {
	if r.cfg.Tick <= 0 || n <= 0 {
		return
	}
	d := time.Duration(n) * r.cfg.Tick
	if d >= 2*time.Millisecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		gort.Gosched()
	}
}

func (r *Runtime) cost(service string) int64 {
	spec, ok := r.fed.Spec(service)
	if !ok || spec.Cost < 1 {
		return 1
	}
	return int64(spec.Cost)
}

// worker drives one process (including its restarts) to termination.
func (r *Runtime) worker(g *shardGroup, idx int, job scheduler.Job) {
	if job.Arrival > 0 {
		r.sleepTicks(job.Arrival)
	}
	def := job.Proc
	restarts := 0
	for {
		rt := r.admit(g, def, idx, scheduler.Origin(job.Proc.ID), restarts)
		if rt == nil {
			break // run is over (error or canceled)
		}
		if !g.drive(rt) {
			break
		}
		// Restart under a derived id after exponential backoff. Backoff
		// is measured in system progress, not wall time: the contention
		// that caused the abort must drain first, so re-entry waits for
		// exponentially many invocation completions by other processes
		// (or for the system to go idle). A wall-clock sleep would be
		// no backoff at all under Tick=0 — the deadlock would re-form
		// instantly with the same opponents and the same victim.
		restarts = rt.restarts + 1
		newID := process.ID(fmt.Sprintf("%s+r%d", job.Proc.ID, restarts))
		def = rt.def.WithID(newID)
		if !r.backoff(int64(4 << restarts)) {
			break
		}
	}
}

// backoff blocks until `n` further invocations completed or no other
// process is active; false when the run ended first.
func (r *Runtime) backoff(n int64) bool {
	r.gmu.Lock()
	defer r.gmu.Unlock()
	target := r.completions + n
	for r.completions < target && r.active > 0 {
		if r.stopped.Load() || r.canceled.Load() {
			return false
		}
		r.gcond.Wait()
	}
	return !r.stopped.Load() && !r.canceled.Load()
}

// admit blocks until the admission policy lets the process in, then
// registers it with its group; nil when the run ended first.
func (r *Runtime) admit(g *shardGroup, def *process.Process, idx int, origin process.ID, restarts int) *procRT {
	ent := &admEntry{def: def, fp: scheduler.Footprint(def)}
	r.gmu.Lock()
	for {
		if r.stopped.Load() || r.canceled.Load() {
			r.gmu.Unlock()
			return nil
		}
		if r.mayStartLocked(ent.fp) {
			break
		}
		r.gcond.Wait()
	}
	r.active++
	r.admitted = append(r.admitted, ent)
	// Subsystems identify lock holders by origin id (incarnations share
	// locks); map it to this incarnation for wait-for edges.
	r.liveByOrigin[origin] = def.ID
	r.gmu.Unlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	rt := &procRT{
		Proc: policy.Proc{
			ID: def.ID, Arrival: idx, Inst: process.NewInstance(def),
			InFlight: make(map[int]string),
		},
		def:      def,
		origin:   origin,
		restarts: restarts,
		prepared: make(map[int]preparedTx),
		start:    time.Now(),
		adm:      ent,
		lastEval: -1,
	}
	g.pol.Admit(&rt.Proc)
	g.byID[rt.ID] = rt
	g.allProcs = append(g.allProcs, def)
	g.outcomes[rt.ID] = &scheduler.Outcome{Restarts: restarts, Start: r.ticksSince(rt.start)}
	g.live++
	r.append(wal.Record{Type: wal.RecStart, Proc: string(rt.ID)})
	r.reg.Inc(metrics.ProcsAdmitted)
	if restarts > 0 {
		g.metrics.Restarts++
		r.reg.Inc(metrics.ProcsRestarted)
	}
	g.bump()
	return rt
}

// ticksSince converts a wall-clock instant into virtual ticks since the
// run started (0 when Tick is unset).
func (r *Runtime) ticksSince(t time.Time) int64 {
	if r.cfg.Tick <= 0 {
		return 0
	}
	return int64(t.Sub(r.start) / r.cfg.Tick)
}

// mayStartLocked implements admission control: the worker cap plus the
// Serial / Conservative admission policies (per-activity decisions for
// those modes are vacuous — admission is the policy). Called with gmu
// held.
func (r *Runtime) mayStartLocked(fp []string) bool {
	if r.cfg.Workers > 0 && r.active >= r.cfg.Workers {
		return false
	}
	switch r.cfg.Mode {
	case scheduler.Serial:
		return r.active == 0
	case scheduler.Conservative:
		for _, ent := range r.admitted {
			if ent.done {
				continue
			}
			for _, s1 := range fp {
				for _, s2 := range ent.fp {
					if r.uni.Conflicts(s1, s2) {
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

// wait blocks the process's worker on the group condition variable
// until some state changes. Three stall breakers guard the park:
//
//   - When the wait carries complete edge information (rt.waitAlts),
//     the park is registered in the GLOBAL wait graph and a precise
//     wait-for analysis fires immediately once a closed set of parked
//     processes waits only on itself — no quiescence needed, so victim
//     aborts overlap with unrelated in-flight work. The graph is
//     global because item-lock waits cross the conflict partition:
//     commutative services share data items without conflicting, so a
//     lock holder may live in another group.
//   - The quiescence backstop of the sequential engine: a stall is
//     declared only once every live member of the group re-evaluated
//     its gates at the current progress generation and found nothing
//     to do, with nothing in flight. Merely counting parked workers
//     would race against workers that were signaled but not yet
//     rescheduled. The backstop is suppressed while a member with
//     complete edges waits on another group (its wake-up legitimately
//     comes from outside; aborting a local victim would be spurious).
//   - Cross-group lock waits additionally re-probe their locks under
//     gmu after incrementing extWaiters, closing the race against a
//     holder that released between the step() probe and the park (the
//     holder's nudgeRelease is then guaranteed to see extWaiters > 0).
//
// Returns false when the run is over. Called with g.mu held.
func (g *shardGroup) wait(rt *procRT) bool {
	r := g.r
	if r.stopped.Load() || r.canceled.Load() {
		return false
	}
	if p := g.progress.Load(); rt.lastEval != p {
		rt.lastEval = p
		g.upToDate++
	}

	registered := false
	extCounted := false
	if rt.waitAlts != nil || rt.extLock {
		r.gmu.Lock()
		// A victim designation from another group's detector may
		// already be waiting for us.
		if r.pendingVictims[rt.ID] {
			delete(r.pendingVictims, rt.ID)
			r.gmu.Unlock()
			g.consumeVictim(rt)
			return true
		}
		if rt.extLock {
			r.extWaiters++
			extCounted = true
			for _, svc := range rt.lockProbes {
				if r.fed.Lockable(string(rt.origin), svc) {
					// Released between probe and park: re-evaluate.
					r.extWaiters--
					r.gmu.Unlock()
					return true
				}
			}
		}
		if rt.waitAlts != nil {
			e := &waitEntry{
				id: rt.ID, alts: rt.waitAlts, g: g, gen: rt.lastEval,
				arrival: rt.Arrival, abortable: rt.Phase == policy.Running && !rt.abortPending,
			}
			r.waits[rt.ID] = e
			registered = true
			if v := r.detectDeadlockLocked(e); v != nil {
				if v.g == g {
					victim := g.byID[v.id]
					delete(r.waits, rt.ID)
					if extCounted {
						r.extWaiters--
					}
					r.gmu.Unlock()
					g.consumeVictim(victim)
					return true
				}
				// Foreign victim: deliver the designation through the
				// nudge supervisor (its group cond cannot be broadcast
				// from here) and park — its abort unblocks us.
				r.pendingVictims[v.id] = true
				select {
				case r.nudge <- struct{}{}:
				default:
				}
			}
		}
		r.gmu.Unlock()
	}

	if g.upToDate >= g.live && g.inFlight == 0 && !g.actionableAbortPending() && !g.crossGroupWait() {
		// Genuine stall: every gate was re-checked this generation and
		// no member's wake-up can come from another group.
		g.deregister(rt, registered, extCounted)
		victim := g.resolveStall()
		if victim == nil {
			r.fail(fmt.Errorf("runtime: unresolvable stall (mode %v, group %d)\n%s", r.cfg.Mode, g.idx, g.stallDump()))
			return false
		}
		g.bump()
		return true
	}

	rt.parked = true
	g.waiting++
	g.cond.Wait()
	g.waiting--
	rt.parked = false
	if registered || extCounted {
		r.gmu.Lock()
		if registered {
			delete(r.waits, rt.ID)
		}
		if extCounted {
			r.extWaiters--
		}
		pv := r.pendingVictims[rt.ID]
		if pv {
			delete(r.pendingVictims, rt.ID)
		}
		r.gmu.Unlock()
		if pv {
			g.consumeVictim(rt)
		}
	}
	return !r.stopped.Load() && !r.canceled.Load()
}

// deregister undoes wait()'s global registration on a no-park exit.
// Called with g.mu held.
func (g *shardGroup) deregister(rt *procRT, registered, extCounted bool) {
	if !registered && !extCounted {
		return
	}
	r := g.r
	r.gmu.Lock()
	if registered {
		delete(r.waits, rt.ID)
	}
	if extCounted {
		r.extWaiters--
	}
	r.gmu.Unlock()
}

// consumeVictim applies a victim designation to one of the group's own
// processes. The MaxStalls budget was consumed at designation time; a
// designation that arrives after the process already started aborting
// (or terminated) is dropped. Called with g.mu held.
func (g *shardGroup) consumeVictim(rt *procRT) {
	if rt == nil || rt.Phase != policy.Running || rt.abortPending {
		return
	}
	rt.abortPending = true
	rt.restartable = true
	g.metrics.VictimAborts++
	g.r.reg.Inc(metrics.VictimAborts)
	g.bump()
}

// crossGroupWait reports whether some live member's registered wait has
// a blocker outside this group (an item-lock holder reachable only
// through a cross-group release). Only members with complete edge
// information count: they are visible to the global detector, so
// suppressing the local backstop for them cannot hide a deadlock.
// Called with g.mu held.
func (g *shardGroup) crossGroupWait() bool {
	for rt := range g.active {
		if rt.extLock && rt.waitAlts != nil {
			return true
		}
	}
	return false
}

// detectDeadlockLocked checks, at the moment e's process is about to
// park with complete wait-for information, whether it belongs to a set
// of parked processes (across ALL groups) that waits only on itself:
// every member, in each of its wait alternatives, waits on at least one
// other member. A blocker's edges disappear only when the blocker acts
// (terminates, commits or rolls back prepared transactions, becomes
// quasi-safe) — which a parked process never does — so such a set can
// never be unblocked from outside and one member must be victim-aborted
// (the youngest abortable one, mirroring the sequential engine).
// Entries are trusted only if their process re-evaluated its gates at
// its group's current progress generation, so a signaled-but-not-
// rescheduled process is never mistaken for stuck. Called with gmu
// held; returns the chosen victim's entry (nil: no closed set, no
// abortable member, or MaxStalls exhausted). The victims budget is
// consumed here.
func (r *Runtime) detectDeadlockLocked(self *waitEntry) *waitEntry {
	stuck := make(map[process.ID]*waitEntry, len(r.waits))
	for id, e := range r.waits {
		if e == self || e.gen == e.g.progress.Load() {
			stuck[id] = e
		}
	}
	if len(stuck) < 2 || stuck[self.id] != self {
		return nil
	}
	blockerStuck := func(alt []process.ID) bool {
		for _, id := range alt {
			if stuck[id] != nil {
				return true
			}
		}
		return false
	}
	// Greatest fixpoint: drop anyone with an escape alternative (an
	// alternative none of whose blockers is in the set — those blockers
	// can still act on their own).
	for changed := true; changed; {
		changed = false
		for id, e := range stuck {
			escapes := false
			for _, alt := range e.alts {
				if !blockerStuck(alt) {
					escapes = true
					break
				}
			}
			if escapes {
				delete(stuck, id)
				changed = true
			}
		}
	}
	if stuck[self.id] == nil {
		return nil
	}
	var victim *waitEntry
	for _, e := range stuck {
		if !e.abortable {
			continue
		}
		if victim == nil || e.arrival > victim.arrival {
			victim = e
		}
	}
	if victim == nil || r.victims >= r.cfg.MaxStalls {
		return nil
	}
	r.victims++
	return victim
}

// actionableAbortPending reports whether some process holds an
// unconsumed abort request its worker can act on immediately (no queued
// recovery steps that could be gated). While one exists, declaring a
// new stall would be spurious: the woken workers merely re-blocked
// before that victim's worker consumed the flag. An abortPending
// process with gated recovery steps does NOT suppress stall handling —
// waiting on it could deadlock, so another victim may be taken
// (bounded by MaxStalls, as in the sequential engine).
func (g *shardGroup) actionableAbortPending() bool {
	for rt := range g.active {
		if rt.abortPending && len(rt.Recovery) == 0 && !rt.StepBusy() && len(rt.InFlight) == 0 {
			return true
		}
	}
	return false
}

// resolveStall aborts the youngest runnable process (it restarts); a
// done process blocked on its deferred 2PC commit is the fallback
// victim, mirroring the sequential engine.
func (g *shardGroup) resolveStall() *procRT {
	r := g.r
	r.gmu.Lock()
	exhausted := r.victims >= r.cfg.MaxStalls
	r.gmu.Unlock()
	if exhausted {
		return nil
	}
	var victim *procRT
	for rt := range g.active {
		if rt.Phase != policy.Running || len(rt.InFlight) > 0 || rt.StepBusy() || rt.abortPending {
			continue
		}
		if rt.Inst.Done() {
			continue
		}
		if victim == nil || rt.Arrival > victim.Arrival {
			victim = rt
		}
	}
	if victim == nil {
		for rt := range g.active {
			if rt.Phase != policy.Running || len(rt.InFlight) > 0 || rt.StepBusy() || rt.abortPending {
				continue
			}
			if rt.Inst.Done() && len(rt.prepared) > 0 && g.pol.HasActiveConflictPred(rt.ID) {
				if victim == nil || rt.Arrival > victim.Arrival {
					victim = rt
				}
			}
		}
	}
	if victim == nil {
		return nil
	}
	r.gmu.Lock()
	r.victims++
	r.gmu.Unlock()
	g.metrics.VictimAborts++
	r.reg.Inc(metrics.VictimAborts)
	victim.restartable = true
	victim.abortPending = true
	return victim
}

// stepKind is the action the serial section hands a worker.
type stepKind int

const (
	sWait   stepKind = iota // nothing dispatchable; block
	sAgain                  // progressed under the lock; re-evaluate
	sInvoke                 // perform the prepared invocation outside the lock
	sDone                   // process terminated
)

type workItem struct {
	local   int
	service string
	kind    activity.Kind
	isStep  bool
	step    process.Step
}

// drive runs one admitted process to termination. Returns true when the
// process aborted restartably and should re-enter.
func (g *shardGroup) drive(rt *procRT) (restart bool) {
	g.mu.Lock()
	restart = g.driveLocked(rt)
	g.live--
	g.bump()
	g.mu.Unlock()
	return restart
}

func (g *shardGroup) driveLocked(rt *procRT) (restart bool) {
	r := g.r
	for {
		if r.stopped.Load() || r.canceled.Load() {
			return false
		}
		kind, item := g.step(rt)
		switch kind {
		case sAgain:
			g.bump()
			continue
		case sDone:
			return rt.restartable && rt.restarts < r.cfg.MaxRestarts
		case sWait:
			if !g.wait(rt) {
				return false
			}
			continue
		}
		// sInvoke: the in-flight registration (running / recoveryBusy)
		// happened in step(); do the subsystem work unlocked.
		g.inFlight++
		var key string
		if r.cfg.Resilience != nil {
			// Key allocated under the lock: fresh per logical invocation
			// and per incarnation (rt.ID carries the restart suffix).
			key = fmt.Sprintf("%s#%d", rt.ID, rt.keySeq)
			rt.keySeq++
		}
		g.mu.Unlock()
		var res *subsystem.Result
		var err error
		var extraLat int64
		if r.cfg.Resilience != nil {
			res, extraLat, err = r.cfg.Resilience.InvokeResilient(
				string(rt.origin), item.service, item.kind, subsystem.Prepare, key)
		} else {
			res, err = r.fed.Invoke(string(rt.origin), item.service, subsystem.Prepare)
		}
		locked := errors.Is(err, subsystem.ErrLocked)
		failed := subsystem.IsInvocationFailure(err)
		if err != nil && !locked && !failed {
			panic(fmt.Sprintf("runtime: invoke %s/%s: %v", rt.ID, item.service, err))
		}
		if !locked {
			r.sleepTicks(r.cost(item.service) + extraLat)
		}
		g.mu.Lock()
		g.inFlight--
		if r.stopped.Load() {
			// The run crashed while this invocation was in flight: do
			// not commit, log or apply its outcome. A prepared local
			// transaction stays in doubt with no prepared record — the
			// orphan recovery rule presumes it aborted.
			g.unregister(rt, item)
			return false
		}
		if locked {
			// Lost the probe/acquire race: a conflicting local
			// transaction grabbed the item locks between step()'s probe
			// and the Invoke. Undo the registration and re-evaluate —
			// the next step() re-probes and parks with the holder's
			// identity as a wait-for edge.
			g.unregister(rt, item)
			g.metrics.Invocations++
			g.metrics.LockWaits++
			r.reg.Inc(metrics.InvokeLockBlocked)
			g.bump()
			continue
		}
		g.complete(rt, item, res, failed)
		g.bump()
	}
}

func (g *shardGroup) unregister(rt *procRT, item workItem) {
	if item.isStep {
		rt.StepSvc = ""
	} else {
		delete(rt.InFlight, item.local)
	}
	g.pol.Bump()
}

// step is the serial-section decision: what should this worker do next?
// Called with g.mu held. Every sWait return records the wait-for edge
// information of the park in rt.waitAlts (nil when the policy cannot
// name the blockers).
func (g *shardGroup) step(rt *procRT) (stepKind, workItem) {
	r := g.r
	rt.waitAlts = nil
	rt.extLock = false
	rt.lockProbes = rt.lockProbes[:0]
	// Recovery steps drain strictly sequentially, before a pending
	// abort is honoured.
	if len(rt.Recovery) > 0 {
		st := rt.Recovery[0]
		switch st.Kind {
		case process.StepAbortPrepared:
			rt.Recovery = rt.Recovery[1:]
			if ptx, ok := rt.prepared[st.Local]; ok {
				if err := ptx.sub.AbortPrepared(ptx.tx); err == nil {
					g.metrics.Rollbacks++
					r.reg.Inc(metrics.DeferredRolledBack)
					r.append(wal.Record{
						Type: wal.RecResolved, Proc: string(rt.ID), Local: st.Local,
						Service: ptx.service, Subsystem: ptx.sub.Name(), Tx: int64(ptx.tx), Commit: false,
					})
				}
				delete(rt.prepared, st.Local)
			}
			g.pol.EraseTentative(rt.ID, st.Local)
			_ = rt.Inst.ApplyStep(st)
			g.pol.Bump()
			r.nudgeRelease()
			return sAgain, workItem{}
		case process.StepCompensate:
			if r.cfg.Mode != scheduler.CCOnly && !g.pol.Lemma2Clear(rt.ID, st) {
				g.metrics.PolicyWaits++
				return sWait, workItem{}
			}
			if holder, free := r.fed.LockBlocker(string(rt.origin), st.Service); !free {
				g.lockWait(rt, holder, st.Service)
				return sWait, workItem{}
			}
			return g.register(rt, workItem{local: st.Local, service: st.Service, kind: activity.Compensation, isStep: true, step: st})
		case process.StepInvoke:
			if r.cfg.Mode != scheduler.CCOnly {
				if !g.pol.Lemma3Clear(rt.ID, st) || !g.pol.Lemma1ClearForward(rt.ID, st) ||
					!g.pol.StepForcedClear(rt.ID, st) {
					g.metrics.PolicyWaits++
					return sWait, workItem{}
				}
				if _, defer2 := g.pol.DeferToAborting(rt.ID, st); defer2 {
					g.metrics.PolicyWaits++
					return sWait, workItem{}
				}
			}
			if holder, free := r.fed.LockBlocker(string(rt.origin), st.Service); !free {
				g.lockWait(rt, holder, st.Service)
				return sWait, workItem{}
			}
			a := rt.def.Activity(st.Local)
			return g.register(rt, workItem{local: st.Local, service: st.Service, kind: a.Kind, isStep: true, step: st})
		}
		return sWait, workItem{}
	}
	if rt.abortPending && rt.Phase != policy.Aborting {
		if err := g.pol.Abort(&rt.Proc, r.nextSeq()); err != nil {
			r.fail(fmt.Errorf("runtime: abort %s: %w", rt.ID, err))
			return sDone, workItem{}
		}
		rt.abortPending = false
		r.append(wal.Record{Type: wal.RecAbortBegin, Proc: string(rt.ID)})
		r.reg.Inc(metrics.BackwardRecoveries)
		return sAgain, workItem{}
	}
	if rt.Phase == policy.Aborting {
		// Completion drained: roll back leftovers and terminate.
		for l, ptx := range rt.prepared {
			if err := ptx.sub.AbortPrepared(ptx.tx); err == nil {
				g.metrics.Rollbacks++
				r.reg.Inc(metrics.DeferredRolledBack)
				r.append(wal.Record{
					Type: wal.RecResolved, Proc: string(rt.ID), Local: l,
					Service: ptx.service, Subsystem: ptx.sub.Name(), Tx: int64(ptx.tx), Commit: false,
				})
			}
			g.pol.EraseTentative(rt.ID, l)
			delete(rt.prepared, l)
		}
		g.terminate(rt, false)
		return sDone, workItem{}
	}
	if rt.Inst.Done() {
		if len(rt.prepared) > 0 {
			if g.pol.HasActiveConflictPred(rt.ID) {
				// Lemma 1: hold the 2PC commit. The wait resolves only
				// when every active conflict predecessor terminated —
				// one AND-alternative for the deadlock detector.
				rt.waitAlts = [][]process.ID{g.pol.ActiveConflictPreds(rt.ID)}
				return sWait, workItem{}
			}
			if !g.commitPreparedSet(rt) {
				return sWait, workItem{}
			}
		}
		g.terminate(rt, true)
		return sDone, workItem{}
	}
	// Mid-process deferred commits (Lemma 1): successors of a prepared
	// activity stay off the frontier until the prepared set commits, so
	// a process wedges behind its own deferral unless it is resolved
	// here the moment the last active conflict predecessor terminates
	// (the concurrent analog of the sequential engine's
	// commitDeferredIfPossible). While predecessors are still active,
	// the deferral contributes one AND-alternative to the wait-for
	// disjunction below — parallel branches may keep executing.
	var deferAlt []process.ID
	if midProcessPrepared(rt) {
		if g.pol.HasActiveConflictPred(rt.ID) {
			deferAlt = g.pol.ActiveConflictPreds(rt.ID)
		} else {
			if !g.commitPreparedSet(rt) {
				return sWait, workItem{} // injected crash mid-2PC
			}
			return sAgain, workItem{} // successors joined the frontier
		}
	}
	// Regular forward execution. The single worker linearizes parallel
	// branches: pick the first dispatchable frontier activity.
	var blocked [][]process.ID
	complete := true
	for _, local := range rt.Inst.Frontier() {
		a := rt.def.Activity(local)
		if !predsCommitted(rt, local) {
			complete = false
			continue
		}
		if ok, _ := g.pol.MayDispatch(rt.ID, a); !ok {
			g.metrics.PolicyWaits++
			r.reg.Inc(metrics.InvokePolicyBlocked)
			if bs := g.pol.DispatchBlockers(rt.ID, a); len(bs) > 0 {
				blocked = append(blocked, bs)
			} else {
				complete = false // denial without pred-wait semantics
			}
			continue
		}
		// Probe the subsystem's item locks under the serial section: a
		// held lock means parking here, not an invocation attempt whose
		// ErrLocked bounce would wake (and be woken by) other blocked
		// workers in an endless retry storm. The holder — possibly in
		// another group, since commutative services share items without
		// conflicting — becomes a wait-for edge.
		if holder, free := r.fed.LockBlocker(string(rt.origin), a.Service); !free {
			rt.lockProbes = append(rt.lockProbes, a.Service)
			if cur, ok := r.incarnation(process.ID(holder)); ok {
				blocked = append(blocked, []process.ID{cur})
				if g.byID[cur] == nil {
					rt.extLock = true
				}
			} else {
				complete = false // holder unknown (terminating); re-probe on wake
			}
			continue
		}
		return g.register(rt, workItem{local: local, service: a.Service, kind: a.Kind})
	}
	// The park's wait-for information is complete only when EVERY
	// frontier alternative was denied by a named blocker set (conflict
	// predecessors or an item-lock holder); any alternative blocked on
	// own prepared work or non-pred rules falls back to the quiescence
	// detector. extLock outlives incompleteness: the park still gets
	// cross-group nudge wake-ups and the gmu re-probe either way.
	if deferAlt != nil {
		blocked = append(blocked, deferAlt)
	}
	if complete && len(blocked) > 0 {
		rt.waitAlts = blocked
	}
	return sWait, workItem{}
}

// midProcessPrepared reports whether a non-done process holds a
// prepared (deferred-commit) local whose successors are off the
// frontier waiting for it.
func midProcessPrepared(rt *procRT) bool {
	for l := range rt.prepared {
		if rt.Inst.Status(l) == process.Prepared {
			return true
		}
	}
	return false
}

// lockWait records the wait-for edge of an item-lock-blocked recovery
// step: the single pending step is the only alternative, its lock
// holder the only blocker. Called with g.mu held.
func (g *shardGroup) lockWait(rt *procRT, holder, service string) {
	rt.lockProbes = append(rt.lockProbes, service)
	cur, ok := g.r.incarnation(process.ID(holder))
	if !ok {
		return // holder unknown (terminating); quiescence backstop only
	}
	rt.waitAlts = [][]process.ID{{cur}}
	if g.byID[cur] == nil {
		rt.extLock = true
	}
}

// register records the invocation as in flight (visible to concurrent
// forced-order decisions) and hands it to the worker.
func (g *shardGroup) register(rt *procRT, item workItem) (stepKind, workItem) {
	r := g.r
	if !r.inject("runtime:dispatch") {
		return sAgain, workItem{} // crash tripped; drive's loop head exits
	}
	if item.isStep {
		rt.StepSvc = item.service
	} else {
		rt.InFlight[item.local] = item.service
	}
	g.pol.Bump()
	if !r.append(wal.Record{Type: wal.RecDispatch, Proc: string(rt.ID), Local: item.local, Service: item.service}) {
		g.unregister(rt, item)
		return sAgain, workItem{}
	}
	r.reg.Inc(metrics.InvokeDispatched)
	return sInvoke, item
}

func predsCommitted(rt *procRT, local int) bool {
	for _, h := range rt.def.Preds(local) {
		if rt.Inst.Status(h) != process.Committed {
			return false
		}
	}
	return true
}

// complete handles a finished invocation under the lock.
func (g *shardGroup) complete(rt *procRT, item workItem, res *subsystem.Result, failed bool) {
	r := g.r
	g.metrics.Invocations++
	r.noteCompletion()
	g.unregister(rt, item)
	r.reg.ObserveService(item.service, r.cost(item.service))
	if item.isStep {
		g.completeStep(rt, item, res, failed)
		return
	}
	if failed {
		if item.kind.GuaranteedToCommit() {
			g.metrics.Retries++
			r.reg.Inc(metrics.RetriesTransient)
			r.append(wal.Record{Type: wal.RecOutcome, Proc: string(rt.ID), Local: item.local, Service: item.service, Outcome: "aborted"})
			return
		}
		g.permanentFailure(rt, item)
		return
	}
	if !r.append(wal.Record{
		Type: wal.RecOutcome, Proc: string(rt.ID), Local: item.local, Service: item.service,
		Subsystem: r.subsystemOf(item.service), Tx: int64(res.Tx), Outcome: "prepared",
	}) {
		return // crashed: the transaction stays in doubt for recovery
	}
	sub, _ := r.fed.Owner(item.service)
	seq := r.nextSeq()
	if g.pol.CommitNow(&rt.Proc, item.kind) {
		if err := sub.CommitPrepared(res.Tx); err != nil {
			r.fail(fmt.Errorf("runtime: commit %s/%s: %w", rt.ID, item.service, err))
			return
		}
		r.append(wal.Record{
			Type: wal.RecResolved, Proc: string(rt.ID), Local: item.local,
			Service: item.service, Subsystem: sub.Name(), Tx: int64(res.Tx), Commit: true,
		})
		if err := g.pol.Commit(&rt.Proc, item.local, item.service, item.kind, seq); err != nil {
			r.fail(fmt.Errorf("runtime: %w", err))
			return
		}
		r.reg.Inc(metrics.CommitsImmediate)
		r.nudgeRelease()
		return
	}
	g.metrics.Deferrals++
	r.reg.Inc(metrics.CommitsDeferred)
	if err := g.pol.Defer(&rt.Proc, item.local, item.service, item.kind, seq); err != nil {
		r.fail(fmt.Errorf("runtime: %w", err))
		return
	}
	rt.prepared[item.local] = preparedTx{sub: sub, tx: res.Tx, service: item.service}
}

// noteCompletion counts one finished invocation and wakes backoff
// waiters; the admission mutex is a leaf under any group mutex.
func (r *Runtime) noteCompletion() {
	r.gmu.Lock()
	r.completions++
	r.gcond.Broadcast()
	r.gmu.Unlock()
}

func (r *Runtime) subsystemOf(service string) string {
	if sub, ok := r.fed.Owner(service); ok {
		return sub.Name()
	}
	return ""
}

// permanentFailure reacts to the definitive failure of a compensatable
// or pivot activity.
func (g *shardGroup) permanentFailure(rt *procRT, item workItem) {
	r := g.r
	r.append(wal.Record{Type: wal.RecFailed, Proc: string(rt.ID), Local: item.local, Service: item.service})
	aborting, err := g.pol.Fail(&rt.Proc, item.local, item.service, item.kind, r.nextSeq(), rt.abortPending, r.nextSeq)
	switch {
	case err != nil:
		r.fail(fmt.Errorf("runtime: %w", err))
	case aborting:
		rt.restartable = false
		r.append(wal.Record{Type: wal.RecAbortBegin, Proc: string(rt.ID)})
		r.reg.Inc(metrics.BackwardRecoveries)
	case !rt.abortPending:
		r.reg.Inc(metrics.ForwardRecoveries)
	}
}

// nextSeq draws the next global event sequence number.
func (r *Runtime) nextSeq() int64 { return r.seq.Add(1) }

// completeStep handles a finished recovery-step invocation.
func (g *shardGroup) completeStep(rt *procRT, item workItem, res *subsystem.Result, failed bool) {
	r := g.r
	if failed {
		// Compensations and forward-recovery steps are retriable.
		g.metrics.Retries++
		r.reg.Inc(metrics.RetriesTransient)
		return
	}
	// Log the step outcome (with subsystem and transaction id), then
	// commit: a crash between the two is repaired by recovery's redo
	// rule (ProcImage.RedoCommit), a crash before the log write leaves
	// an orphan that recovery presumes aborted and re-executes.
	sub, _ := r.fed.Owner(item.service)
	var logged bool
	switch item.step.Kind {
	case process.StepCompensate:
		logged = r.append(wal.Record{
			Type: wal.RecCompensate, Proc: string(rt.ID), Local: item.local, Service: item.service,
			Subsystem: sub.Name(), Tx: int64(res.Tx),
		})
	case process.StepInvoke:
		logged = r.append(wal.Record{
			Type: wal.RecOutcome, Proc: string(rt.ID), Local: item.local, Service: item.service,
			Subsystem: sub.Name(), Tx: int64(res.Tx), Outcome: "committed",
		})
	}
	if !logged {
		return // crashed: the step never happened as far as the log knows
	}
	if err := sub.CommitPrepared(res.Tx); err != nil {
		r.fail(fmt.Errorf("runtime: commit step %s/%s: %w", rt.ID, item.service, err))
		return
	}
	if item.step.Kind == process.StepCompensate {
		g.metrics.Compensations++
		r.reg.Inc(metrics.CompensationsIssued)
	}
	if err := g.pol.StepDone(&rt.Proc, item.step, item.kind, r.nextSeq()); err != nil {
		r.fail(fmt.Errorf("runtime: %w", err))
		return
	}
	r.nudgeRelease()
}

// commitPreparedSet performs the atomic 2PC commit of the prepared set
// once Lemma 1 released it. Called with g.mu held (lock order
// g.mu -> subsystem.mu).
func (g *shardGroup) commitPreparedSet(rt *procRT) bool {
	r := g.r
	locals := make([]int, 0, len(rt.prepared))
	for l := range rt.prepared {
		if rt.Inst.Status(l) == process.Prepared {
			locals = append(locals, l)
		}
	}
	sort.Ints(locals)
	if len(locals) == 0 {
		return true
	}
	parts := make([]twopc.Participant, 0, len(locals))
	for _, l := range locals {
		ptx := rt.prepared[l]
		parts = append(parts, twopc.Participant{
			Sub: ptx.sub, Tx: ptx.tx, Proc: string(rt.ID), Local: l, Service: ptx.service,
		})
	}
	var cerr error
	if !r.guard(func() { cerr = r.coord.CommitAll(string(rt.ID), parts) }) {
		return false // injected crash mid-2PC; recovery finishes the job
	}
	if cerr != nil {
		r.fail(fmt.Errorf("runtime: 2PC commit of %s: %w", rt.ID, cerr))
		return false
	}
	for _, l := range locals {
		g.metrics.TwoPCCommits++
		r.reg.Inc(metrics.DeferredCommitted2PC)
		if err := g.pol.Finalize(&rt.Proc, l, r.nextSeq()); err != nil {
			r.fail(fmt.Errorf("runtime: %w", err))
			return false
		}
		delete(rt.prepared, l)
	}
	return true
}

// terminate emits the terminal event. Called with g.mu held.
func (g *shardGroup) terminate(rt *procRT, committed bool) {
	r := g.r
	out := g.outcomes[rt.ID]
	out.End = r.ticksSince(time.Now())
	out.Committed = committed
	out.Aborted = !committed
	if committed {
		g.metrics.CommittedProcs++
		r.reg.Inc(metrics.ProcsCommitted)
	} else {
		g.metrics.AbortedProcs++
		r.reg.Inc(metrics.ProcsAborted)
	}
	r.reg.Observe(metrics.HistProcDuration, r.ticksSince(time.Now())-out.Start)
	r.append(wal.Record{Type: wal.RecTerminate, Proc: string(rt.ID), Committed: committed})
	g.pol.Terminate(&rt.Proc, committed, r.nextSeq())
	r.gmu.Lock()
	r.active--
	rt.adm.done = true
	if r.liveByOrigin[rt.origin] == rt.ID {
		delete(r.liveByOrigin, rt.origin)
	}
	r.gcond.Broadcast()
	r.gmu.Unlock()
	// Termination released whatever this process still held (2PC commit
	// or rollback of its prepared set happened on the way here); waiters
	// in other groups only learn about it through a nudge.
	r.nudgeRelease()
}

// stallDump renders the group state for stall diagnostics.
func (g *shardGroup) stallDump() string {
	r := g.r
	r.gmu.Lock()
	victims := r.victims
	active := r.active
	r.gmu.Unlock()
	s := fmt.Sprintf("group=%d shards=%v live=%d active=%d inFlight=%d waiting=%d victims=%d progress=%d\n",
		g.idx, g.shards, g.live, active, g.inFlight, g.waiting, victims, g.progress.Load())
	for rt := range g.active {
		s += fmt.Sprintf("  %s state=%d mode=%v done=%v running=%d recovery=%d busy=%v abortPending=%v prepared=%d frontier=%v\n",
			rt.ID, rt.Phase, rt.Inst.Mode(), rt.Inst.Done(), len(rt.InFlight), len(rt.Recovery), rt.StepBusy(), rt.abortPending, len(rt.prepared), rt.Inst.Frontier())
	}
	for _, k := range g.pol.EdgeList() {
		s += fmt.Sprintf("  edge %s->%s\n", k[0], k[1])
	}
	r.gmu.Lock()
	for id, e := range r.waits {
		s += fmt.Sprintf("  wait %s alts=%v fresh=%v\n", id, e.alts, e.gen == e.g.progress.Load())
	}
	r.gmu.Unlock()
	return s
}
