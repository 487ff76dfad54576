package federation

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"transproc/internal/chaos"
	"transproc/internal/fault"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/scheduler/policy"
	"transproc/internal/wal"
)

// NodeJob is a process owned by a node, with its global arrival rank.
type NodeJob struct {
	Def     *process.Process
	Arrival int
}

// NodeConfig configures one scheduler node.
type NodeConfig struct {
	ID   uint32
	Name string
	Addr string
	// WAL is the node's private log; records carry hub-issued stamps so
	// the stitcher can merge the per-node logs into one global history.
	WAL  wal.Log
	Jobs []NodeJob
	// MaxRestarts bounds restart incarnations per origin process.
	MaxRestarts int
	// Wire is the transport fault plan (applied per delivery attempt).
	Wire           chaos.Plan
	DispatchBudget int
	ControlBudget  int
	// Inject fires named crash points (fed:dispatch, fed:after-prepared,
	// twopc:after-decision, twopc:mid-resolve); a fault plan panics
	// through it with a crash sentinel the node recovers.
	Inject  func(string)
	Metrics *metrics.Registry
	// Defs maps origin id → definition for every process in the cluster,
	// not just this node's jobs — needed to admit adopted orphans of a
	// dead peer. Nil restricts adoption to origins in Jobs.
	Defs map[string]*process.Process
	// HeartbeatEvery sends a lease-refreshing heartbeat when the driver
	// is sleeping (its RPCs refresh the lease implicitly otherwise);
	// zero disables heartbeats.
	HeartbeatEvery time.Duration
	// ReconnectAttempts bounds consecutive connection failures per RPC
	// (0 = default), each preceded by a seeded backoff sleep — the knob
	// that must outlast a hub reopen.
	ReconnectAttempts int
}

// nodeProc is the node-side state of one process incarnation — the
// counterpart of the engine's procRT, driven by RPC responses instead
// of completion events.
type nodeProc struct {
	id      process.ID
	origin  process.ID
	def     *process.Process
	inst    *process.Instance
	arrival int

	admitted bool
	backoff  int // driver rounds to wait before (re-)admission

	state        policy.Phase
	recovery     []process.Step
	abortPending bool
	restartable  bool
	restarts     int
	prepared     map[int]preparedRemote
}

// preparedRemote is the node's record of a Lemma-1 deferred local
// transaction (the hub holds the live subsystem handle).
type preparedRemote struct {
	tx        int64
	subsystem string
	service   string
}

// Node drives its owned processes against the hub. Each process is
// advanced single-threaded; an RPC either advances the mirror state on
// both sides or leaves both unchanged.
type Node struct {
	cfg   NodeConfig
	cli   *Client
	log   wal.Log
	reg   *metrics.Registry
	procs []*nodeProc
	gen   int64 // latest progress generation seen in a response
	defs  map[string]*process.Process
	beat  time.Time // last heartbeat send

	// Outcomes by incarnation id, as the engine reports them.
	Outcomes map[process.ID]*scheduler.Outcome
	// Crashed is set when an injected crash point stopped the node.
	Crashed bool
	// Reattached counts hub-restart (or lease-exile) recovery rounds the
	// node performed.
	Reattached int
}

// NewNode builds a node; Run connects and drives it.
func NewNode(cfg NodeConfig) *Node {
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 8
	}
	return &Node{
		cfg:      cfg,
		log:      cfg.WAL,
		reg:      cfg.Metrics,
		Outcomes: make(map[process.ID]*scheduler.Outcome),
	}
}

func (n *Node) inject(point string) {
	if n.cfg.Inject != nil {
		n.cfg.Inject(point)
	}
}

// force appends a stamped record to the node's WAL.
func (n *Node) force(rec wal.Record, stamp int64) {
	rec.Stamp = stamp
	if _, err := n.log.Append(rec); err != nil {
		panic(fmt.Sprintf("federation: node %s wal append: %v", n.cfg.Name, err))
	}
}

// call wraps the client, tracking the progress generation.
func (n *Node) call(f *Frame, invocation bool) (*Frame, error) {
	resp, err := n.cli.Call(f, invocation)
	if resp != nil && resp.Gen > n.gen {
		n.gen = resp.Gen
	}
	if err == nil && resp.Status == StError {
		return resp, fmt.Errorf("federation: hub rejected %v for %s: %s", f.Type, f.Proc, resp.Err)
	}
	return resp, err
}

// Run drives the node until all owned work is terminal (or a crash
// point fires — the node then stops with Crashed set, its WAL and the
// hub's subsystem state surviving for stitched recovery). A hub restart
// surfacing as ErrHubRestart from any RPC triggers the re-attach flow
// (re-hello, per-process fate query) and the driver resumes.
func (n *Node) Run() (err error) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if _, ok := fault.AsCrash(v); ok {
			n.Crashed = true
			n.cli.Close()
			return
		}
		panic(v)
	}()
	n.cli = NewClient(n.cfg.ID, n.cfg.Name, n.cfg.Addr, n.cfg.Wire,
		n.cfg.DispatchBudget, n.cfg.ControlBudget, n.cfg.ReconnectAttempts, n.reg)
	defer n.cli.Close()
	if _, err := n.call(&Frame{Type: MsgHello, Origin: n.cfg.Name}, false); err != nil {
		return err
	}
	jobs := append([]NodeJob(nil), n.cfg.Jobs...)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })
	n.defs = make(map[string]*process.Process, len(n.cfg.Defs)+len(jobs))
	for id, d := range n.cfg.Defs {
		n.defs[id] = d
	}
	for _, j := range jobs {
		n.defs[string(j.Def.ID)] = j.Def
		n.procs = append(n.procs, &nodeProc{
			id: j.Def.ID, origin: j.Def.ID, def: j.Def,
			inst: process.NewInstance(j.Def), arrival: j.Arrival,
			prepared: make(map[int]preparedRemote),
		})
	}
	n.beat = time.Now()

	for {
		done, err := n.roundOnce()
		if errors.Is(err, ErrHubRestart) {
			if rerr := n.reattach(); rerr != nil && !errors.Is(rerr, ErrHubRestart) {
				return rerr
			}
			// A reattach cut short by another hub death retries on the
			// next round — the next RPC bounces stale again.
			continue
		}
		if err != nil || done {
			return err
		}
	}
}

// roundOnce is one driver round; done reports clean completion (all
// owned work terminal and the hub acknowledged the final idle).
func (n *Node) roundOnce() (bool, error) {
	progress := false
	pendingRestart := false
	allDone := true
	for _, p := range n.procs {
		if p.state == policy.Done {
			continue
		}
		allDone = false
		if !p.admitted {
			if p.backoff > 0 {
				p.backoff--
				pendingRestart = true
				continue
			}
			if err := n.admit(p); err != nil {
				return false, err
			}
			progress = true
			continue
		}
		ok, err := n.driveProc(p)
		if err != nil {
			return false, err
		}
		if ok {
			progress = true
		}
	}
	if allDone {
		resp, err := n.call(&Frame{Type: MsgIdle, Flag: true}, false)
		if err != nil {
			return false, err
		}
		// The final idle can still carry queued work: an adoption offer
		// un-finishes the node; stray designations for already-terminal
		// processes are absorbed.
		switch {
		case resp.Status == StAdopt && resp.Victim != "":
			n.adopt(resp)
		case resp.Status == StVictim && resp.Victim != "":
			n.markVictim(process.ID(resp.Victim))
		case resp.Status == StPark && resp.Victim != "":
			n.markParked(process.ID(resp.Victim))
		default:
			return true, nil
		}
		return false, nil
	}
	if progress {
		return false, nil
	}
	if pendingRestart {
		// Never report idle with a restart pending: the hub would
		// count this node as quiescent and designate a victim against
		// work that is about to re-enter.
		return false, n.idleSleep()
	}
	resp, err := n.call(&Frame{Type: MsgIdle, Gen: n.gen}, false)
	if err != nil {
		return false, err
	}
	switch {
	case resp.Status == StVictim && resp.Victim != "":
		n.markVictim(process.ID(resp.Victim))
	case resp.Status == StPark && resp.Victim != "":
		n.markParked(process.ID(resp.Victim))
	case resp.Status == StAdopt && resp.Victim != "":
		n.adopt(resp)
	default:
		return false, n.idleSleep()
	}
	return false, nil
}

// idleSleep naps between unproductive rounds, sending a lease-refresh
// heartbeat when one is due (driver RPCs refresh the lease implicitly,
// so heartbeats only matter while the node is otherwise silent).
func (n *Node) idleSleep() error {
	if n.cfg.HeartbeatEvery > 0 && time.Since(n.beat) >= n.cfg.HeartbeatEvery {
		n.beat = time.Now()
		if _, err := n.call(&Frame{Type: MsgHeartbeat}, false); err != nil {
			return err
		}
	}
	time.Sleep(100 * time.Microsecond)
	return nil
}

// adopt admits a fresh incarnation of a dead peer's orphaned origin,
// granted by the hub through an idle poll (StAdopt).
func (n *Node) adopt(resp *Frame) {
	def := n.defs[resp.Origin]
	if def == nil {
		return // unknown origin: the offer is consumed, recovery settles it
	}
	newID := process.ID(resp.Victim)
	for _, p := range n.procs {
		if p.id == newID {
			return // duplicate delivery (lost response replayed)
		}
	}
	n.procs = append(n.procs, &nodeProc{
		id: newID, origin: process.ID(resp.Origin), def: def.WithID(newID),
		inst: process.NewInstance(def.WithID(newID)), arrival: int(resp.Stamp2),
		restarts: int(resp.Extra),
		prepared: make(map[int]preparedRemote),
	})
}

// reattach is the hub-restart recovery flow: re-hello (adopting the new
// epoch), then ask the hub for the recovered fate of every in-flight
// process and settle the local mirror accordingly. Fates come from the
// reopen's composed recovery pass, so this resolves every in-doubt
// transition — a process the node last saw mid-2PC comes back either
// committed (decision was logged; recovery redid the resolution) or
// aborted (no decision; presumed abort), never in between.
func (n *Node) reattach() error {
	if _, err := n.call(&Frame{Type: MsgHello, Origin: n.cfg.Name}, false); err != nil {
		return err
	}
	n.Reattached++
	for _, p := range n.procs {
		if p.state == policy.Done {
			continue
		}
		// Not-yet-admitted procs are queried too: a pending adopted
		// incarnation may have been re-homed to another survivor while
		// this node's lease was expired, in which case the hub retired
		// it and admitting it now would drive a dead incarnation. A
		// never-admitted original simply comes back Unknown and the
		// reset below is a no-op for it.
		resp, err := n.call(&Frame{
			Type: MsgReattach, Proc: string(p.id),
			Flag: p.restarts < n.cfg.MaxRestarts,
		}, false)
		if err != nil {
			return err
		}
		switch resp.Extra {
		case ReattachCommitted:
			// Terminated committed; the terminate record already exists
			// (pre-crash or in the recovery tail) — log nothing.
			p.state = policy.Done
			out := n.outcome(p)
			out.Committed = true
			out.Aborted = false
			out.Restarts = p.restarts
		case ReattachAborted:
			p.state = policy.Done
			out := n.outcome(p)
			out.Committed = false
			out.Aborted = true
			out.Restarts = p.restarts
			if resp.Flag && resp.Victim != "" {
				// Hub-granted restart incarnation (suffix chosen hub-side
				// so it never collides across owners or incarnations).
				newID := process.ID(resp.Victim)
				n.procs = append(n.procs, &nodeProc{
					id: newID, origin: p.origin, def: p.def.WithID(newID),
					inst: process.NewInstance(p.def.WithID(newID)), arrival: p.arrival,
					restarts: int(resp.Stamp2), backoff: 4,
					prepared: make(map[int]preparedRemote),
				})
			}
		case ReattachParked:
			p.state = policy.Done
			p.restartable = false
			out := n.outcome(p)
			out.Aborted = true
			out.Restarts = p.restarts
		case ReattachLive:
			// Still tracked live (the hub never actually died from this
			// node's perspective — e.g. a revived membership): keep going.
		case ReattachUnknown:
			// No WAL record exists for this incarnation (the admit reply
			// was lost before RecStart was forced), so recovery cannot
			// have settled it and re-admitting the same id is safe.
			p.admitted = false
			p.abortPending = false
			p.state = policy.Running
			p.recovery = nil
			p.inst = process.NewInstance(p.def)
			p.prepared = make(map[int]preparedRemote)
		default:
			return fmt.Errorf("federation: unknown reattach fate %d for %s", resp.Extra, p.id)
		}
	}
	return nil
}

func (n *Node) markVictim(id process.ID) {
	for _, p := range n.procs {
		if p.id == id && p.admitted && p.state == policy.Running && !p.abortPending {
			p.abortPending = true
			p.restartable = true
		}
	}
}

// markParked stops driving a process whose remaining recovery steps
// are blocked behind a dead node's zombie events: no terminate record
// is logged, so the composed recovery sees the process non-terminal
// and finishes its group abort in correct global order.
func (n *Node) markParked(id process.ID) {
	for _, p := range n.procs {
		if p.id == id && p.admitted && p.state != policy.Done {
			p.state = policy.Done
			p.restartable = false // recovery finishes it; no fresh incarnation
			out := n.Outcomes[p.id]
			out.Aborted = true
			out.Restarts = p.restarts
		}
	}
}

// outcome returns the Outcome slot for p, creating it for a proc that
// was never admitted (its slot is otherwise made on admit).
func (n *Node) outcome(p *nodeProc) *scheduler.Outcome {
	if n.Outcomes[p.id] == nil {
		n.Outcomes[p.id] = &scheduler.Outcome{Restarts: p.restarts}
	}
	return n.Outcomes[p.id]
}

func (n *Node) admit(p *nodeProc) error {
	resp, err := n.call(&Frame{
		Type: MsgAdmit, Proc: string(p.id), Origin: string(p.origin),
		Local: int32(p.arrival), Extra: int32(p.restarts),
	}, false)
	if err != nil {
		return err
	}
	if !resp.Flag2 {
		// Flag2 marks an idempotent replay of a known incarnation (a lost
		// admit response re-asked across a reconnect): RecStart was
		// already forced at the original stamp, never twice.
		n.force(wal.Record{Type: wal.RecStart, Proc: string(p.id)}, resp.Stamp)
	} else if resp.Extra == ReattachCommitted || resp.Extra == ReattachAborted {
		// The replayed incarnation was settled while this node was out
		// (re-homed after a lease expiry, or finished by another owner):
		// file the fate instead of driving a dead incarnation.
		p.state = policy.Done
		out := n.outcome(p)
		out.Committed = resp.Extra == ReattachCommitted
		out.Aborted = resp.Extra == ReattachAborted
		out.Restarts = p.restarts
		return nil
	}
	p.admitted = true
	if n.Outcomes[p.id] == nil {
		n.Outcomes[p.id] = &scheduler.Outcome{Restarts: p.restarts}
	}
	return nil
}

// driveProc advances one process by at most one transition, mirroring
// the engine's dispatchProc order: recovery steps drain first, then a
// pending abort begins, an aborting process finishes, a done process
// tries its 2PC commit-and-terminate, and otherwise frontier activities
// dispatch (with a deferred-commit poll when nothing else moves).
func (n *Node) driveProc(p *nodeProc) (bool, error) {
	if len(p.recovery) > 0 {
		return n.driveStep(p)
	}
	if p.abortPending && p.state != policy.Aborting {
		return true, n.beginAbort(p)
	}
	if p.state == policy.Aborting {
		return true, n.finishAbort(p)
	}
	if p.inst.Done() {
		return n.tryFinish(p)
	}
	progress := false
	for _, local := range p.inst.Frontier() {
		if !n.predsCommitted(p, local) {
			continue
		}
		ok, err := n.dispatchFrontier(p, local)
		if err != nil {
			return false, err
		}
		if ok {
			progress = true
		}
		if p.abortPending || len(p.recovery) > 0 {
			return progress, nil // the failure plan or a designation took over
		}
	}
	if !progress && len(p.prepared) > 0 {
		// Deferred-commit poll: the engine unblocks these sets inside
		// commitDeferredIfPossible when a predecessor terminates; here
		// the owning node polls the same Lemma-1 gate.
		return n.pollDeferred(p)
	}
	return progress, nil
}

func (n *Node) predsCommitted(p *nodeProc, local int) bool {
	for _, h := range p.def.Preds(local) {
		if p.inst.Status(h) != process.Committed {
			return false
		}
	}
	return true
}

func (n *Node) dispatchFrontier(p *nodeProc, local int) (bool, error) {
	a := p.def.Activity(local)
	n.inject(fault.PointFedDispatch)
	resp, err := n.call(&Frame{
		Type: MsgDispatch, Proc: string(p.id), Local: int32(local), Kind: uint8(a.Kind),
	}, true)
	if errors.Is(err, ErrVoided) {
		// The transport gave up and the hub certified the dispatch never
		// ran: surface it as an invocation failure (the engine's
		// unmaskable-transport-failure path).
		resp, err = n.call(&Frame{
			Type: MsgFailed, Proc: string(p.id), Local: int32(local),
		}, false)
	}
	if err != nil {
		return false, err
	}
	switch resp.Status {
	case StPolicyWait, StLockWait:
		return false, nil
	case StPark:
		n.markParked(p.id)
		return true, nil
	case StVictim:
		p.abortPending = true
		p.restartable = true
		return true, nil
	case StFailedTransient:
		n.force(wal.Record{
			Type: wal.RecOutcome, Proc: string(p.id), Local: local,
			Service: a.Service, Outcome: "aborted",
		}, resp.Stamp)
		return true, nil
	case StFailedPermanent:
		return true, n.permanentFailure(p, local, a.Service, resp)
	case StOK:
		n.force(wal.Record{
			Type: wal.RecOutcome, Proc: string(p.id), Local: local, Service: resp.Service,
			Subsystem: resp.Subsystem, Tx: resp.Tx, Outcome: "prepared",
		}, resp.Stamp)
		n.inject(fault.PointFedAfterPrepared)
		cresp, err := n.call(&Frame{Type: MsgCommitLocal, Proc: string(p.id), Local: int32(local)}, false)
		if err != nil {
			return false, err
		}
		switch cresp.Status {
		case StOK:
			n.force(wal.Record{
				Type: wal.RecResolved, Proc: string(p.id), Local: local, Service: cresp.Service,
				Subsystem: cresp.Subsystem, Tx: cresp.Tx, Commit: true,
			}, cresp.Stamp)
			if err := p.inst.MarkCommitted(local); err != nil {
				return false, err
			}
		case StDeferred:
			if err := p.inst.MarkPrepared(local); err != nil {
				return false, err
			}
			p.prepared[local] = preparedRemote{tx: resp.Tx, subsystem: resp.Subsystem, service: resp.Service}
		default:
			return false, fmt.Errorf("federation: unexpected commit-local status %v for %s/%d", cresp.Status, p.id, local)
		}
		return true, nil
	}
	return false, fmt.Errorf("federation: unexpected dispatch status %v for %s/%d", resp.Status, p.id, local)
}

// permanentFailure mirrors the engine's handlePermanentFailure using
// the plan the node's own instance computes (identical to the hub's).
func (n *Node) permanentFailure(p *nodeProc, local int, service string, resp *Frame) error {
	n.force(wal.Record{Type: wal.RecFailed, Proc: string(p.id), Local: local, Service: service}, resp.Stamp)
	plan, err := p.inst.MarkFailed(local)
	if err != nil {
		return err
	}
	if resp.Flag2 {
		// A pending abort (designated hub-side, not yet delivered)
		// supersedes the plan.
		p.abortPending = true
		p.restartable = true
		return nil
	}
	if plan.Abort != resp.Flag {
		return fmt.Errorf("federation: failure plan mismatch for %s/%d (node abort=%v, hub abort=%v)",
			p.id, local, plan.Abort, resp.Flag)
	}
	if plan.Abort {
		p.restartable = false
		p.state = policy.Aborting
		p.recovery = plan.Steps
		n.force(wal.Record{Type: wal.RecAbortBegin, Proc: string(p.id)}, resp.Stamp2)
	} else {
		p.recovery = plan.Steps
	}
	return nil
}

func (n *Node) beginAbort(p *nodeProc) error {
	steps, err := p.inst.Abort()
	if err != nil {
		return err
	}
	resp, err := n.call(&Frame{Type: MsgAbortBegin, Proc: string(p.id)}, false)
	if err != nil {
		return err
	}
	n.force(wal.Record{Type: wal.RecAbortBegin, Proc: string(p.id)}, resp.Stamp)
	p.abortPending = false
	p.state = policy.Aborting
	p.recovery = steps
	return nil
}

func (n *Node) driveStep(p *nodeProc) (bool, error) {
	st := p.recovery[0]
	switch st.Kind {
	case process.StepAbortPrepared:
		resp, err := n.call(&Frame{
			Type: MsgAbortTx, Proc: string(p.id), Local: int32(st.Local), Service: st.Service, Flag: true,
		}, false)
		if err != nil {
			return false, err
		}
		if resp.Flag {
			n.force(wal.Record{
				Type: wal.RecResolved, Proc: string(p.id), Local: st.Local, Service: resp.Service,
				Subsystem: resp.Subsystem, Tx: resp.Tx, Commit: false,
			}, resp.Stamp)
		}
		p.recovery = p.recovery[1:]
		delete(p.prepared, st.Local)
		_ = p.inst.ApplyStep(st)
		return true, nil
	case process.StepCompensate, process.StepInvoke:
		resp, err := n.call(&Frame{
			Type: MsgStepDispatch, Proc: string(p.id), Local: int32(st.Local),
			Service: st.Service, Extra: int32(st.Kind),
		}, true)
		if errors.Is(err, ErrVoided) {
			return false, nil // certified never-ran: retry next round
		}
		if err != nil {
			return false, err
		}
		switch resp.Status {
		case StPolicyWait, StLockWait, StFailedTransient:
			return false, nil
		case StPark:
			// The hub parked this process while the dispatch was in
			// flight: stop driving it, log nothing more — post-run
			// recovery replans and executes the remaining steps.
			n.markParked(p.id)
			return true, nil
		case StOK:
		default:
			return false, fmt.Errorf("federation: unexpected step-dispatch status %v for %s/%d", resp.Status, p.id, st.Local)
		}
		rec := wal.Record{
			Type: wal.RecCompensate, Proc: string(p.id), Local: st.Local, Service: st.Service,
			Subsystem: resp.Subsystem, Tx: resp.Tx,
		}
		if st.Kind == process.StepInvoke {
			rec = wal.Record{
				Type: wal.RecOutcome, Proc: string(p.id), Local: st.Local, Service: st.Service,
				Subsystem: resp.Subsystem, Tx: resp.Tx, Outcome: "committed",
			}
		}
		n.force(rec, resp.Stamp)
		cresp, err := n.call(&Frame{
			Type: MsgStepCommit, Proc: string(p.id), Local: int32(st.Local),
			Service: st.Service, Extra: int32(st.Kind), Kind: resp.Kind, Tx: resp.Tx,
		}, false)
		if err != nil {
			return false, err
		}
		if cresp.Status != StOK {
			return false, fmt.Errorf("federation: unexpected step-commit status %v for %s/%d", cresp.Status, p.id, st.Local)
		}
		if len(p.recovery) > 0 && p.recovery[0] == st {
			p.recovery = p.recovery[1:]
		}
		if err := p.inst.ApplyStep(st); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, fmt.Errorf("federation: unknown step kind %v", st.Kind)
}

func (n *Node) finishAbort(p *nodeProc) error {
	locals := make([]int, 0, len(p.prepared))
	for l := range p.prepared {
		locals = append(locals, l)
	}
	sort.Ints(locals)
	for _, l := range locals {
		resp, err := n.call(&Frame{
			Type: MsgAbortTx, Proc: string(p.id), Local: int32(l), Flag: false,
		}, false)
		if err != nil {
			return err
		}
		if resp.Flag {
			n.force(wal.Record{
				Type: wal.RecResolved, Proc: string(p.id), Local: l, Service: resp.Service,
				Subsystem: resp.Subsystem, Tx: resp.Tx, Commit: false,
			}, resp.Stamp)
		}
		delete(p.prepared, l)
	}
	if err := n.terminate(p, false); err != nil {
		return err
	}
	if p.restartable && p.restarts < n.cfg.MaxRestarts {
		n.restart(p)
	}
	return nil
}

func (n *Node) terminate(p *nodeProc, committed bool) error {
	resp, err := n.call(&Frame{Type: MsgTerminate, Proc: string(p.id), Flag: committed}, false)
	if err != nil {
		return err
	}
	if resp.Status == StPark {
		// Parked while the terminate was in flight: no terminate record
		// may be logged (recovery must see the process non-terminal and
		// finish its completion), and finishAbort must not restart it.
		n.markParked(p.id)
		return nil
	}
	n.force(wal.Record{Type: wal.RecTerminate, Proc: string(p.id), Committed: committed}, resp.Stamp)
	p.state = policy.Done
	out := n.Outcomes[p.id]
	out.Committed = committed
	out.Aborted = !committed
	p.inst.MarkTerminated(committed)
	return nil
}

func (n *Node) restart(p *nodeProc) {
	newID := process.ID(fmt.Sprintf("%s+r%d", p.origin, p.restarts+1))
	backoff := 4 << (p.restarts + 1)
	if backoff > 128 {
		backoff = 128
	}
	n.procs = append(n.procs, &nodeProc{
		id: newID, origin: p.origin, def: p.def.WithID(newID),
		inst: process.NewInstance(p.def.WithID(newID)), arrival: p.arrival,
		restarts: p.restarts + 1, backoff: backoff,
		prepared: make(map[int]preparedRemote),
	})
}

// tryFinish mirrors the engine: gate on Lemma 1 via the hub, then log
// the decision, resolve every prepared participant in ascending local
// order, and terminate committed.
func (n *Node) tryFinish(p *nodeProc) (bool, error) {
	resp, err := n.call(&Frame{Type: MsgCommitClear, Proc: string(p.id)}, false)
	if err != nil {
		return false, err
	}
	switch resp.Status {
	case StNotClear:
		return false, nil
	case StVictim:
		p.abortPending = true
		p.restartable = true
		return true, nil
	case StOK:
	default:
		return false, fmt.Errorf("federation: unexpected commit-clear status %v for %s", resp.Status, p.id)
	}
	if err := n.resolvePrepared(p, resp.Stamp); err != nil {
		return false, err
	}
	return true, n.terminate(p, true)
}

// pollDeferred is the mid-process deferred-commit poll for a running
// process whose prepared set blocks its successors.
func (n *Node) pollDeferred(p *nodeProc) (bool, error) {
	resp, err := n.call(&Frame{Type: MsgCommitClear, Proc: string(p.id)}, false)
	if err != nil {
		return false, err
	}
	switch resp.Status {
	case StNotClear:
		return false, nil
	case StVictim:
		p.abortPending = true
		p.restartable = true
		return true, nil
	case StOK:
		if err := n.resolvePrepared(p, resp.Stamp); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, fmt.Errorf("federation: unexpected commit-clear status %v for %s", resp.Status, p.id)
}

func (n *Node) resolvePrepared(p *nodeProc, decisionStamp int64) error {
	locals := make([]int, 0, len(p.prepared))
	for l := range p.prepared {
		if p.inst.Status(l) == process.Prepared {
			locals = append(locals, l)
		}
	}
	sort.Ints(locals)
	if len(locals) == 0 {
		return nil
	}
	n.force(wal.Record{Type: wal.RecDecision, Proc: string(p.id)}, decisionStamp)
	n.inject(fault.PointAfterDecision)
	for i, l := range locals {
		resp, err := n.call(&Frame{Type: MsgResolve, Proc: string(p.id), Local: int32(l)}, false)
		if err != nil {
			return err
		}
		if resp.Status != StOK {
			return fmt.Errorf("federation: unexpected resolve status %v for %s/%d", resp.Status, p.id, l)
		}
		n.force(wal.Record{
			Type: wal.RecResolved, Proc: string(p.id), Local: l, Service: resp.Service,
			Subsystem: resp.Subsystem, Tx: resp.Tx, Commit: true,
		}, resp.Stamp)
		if err := p.inst.MarkCommitted(l); err != nil {
			return err
		}
		delete(p.prepared, l)
		if i == 0 {
			n.inject(fault.PointMidResolve)
		}
	}
	return nil
}
