// Package policy implements the pure PRED scheduling decisions of the
// paper, factored out of any particular execution engine: the effective
// event history and process conflict graph, the forced-ordering context
// that maintains prefix-reducibility inductively, Lemma 1's commit
// deferral condition, the quasi-commit exploitation of Example 10, the
// Lemma 2/3 ordering of compensations and forward-recovery steps, and
// cascade-victim selection.
//
// Three engines share this layer: the sequential discrete-event engine
// (internal/scheduler) — the reference oracle — the concurrent
// goroutine-per-process runtime (internal/runtime) and the federation
// hub (internal/federation). The policy State is NOT internally
// synchronized: the sequential engine calls it from its single event
// loop, the runtime and the hub from within their serial sections.
//
// The State owns the process table: one Proc per admitted process, in
// admission order, holding the policy-visible facts (phase, instance,
// queued recovery steps, in-flight invocations). Each engine embeds the
// Proc in its own per-process struct and mutates it in place, so the
// decisions read the engine's live state without an adapter. The
// policy-side half of the runtime's and the hub's lifecycle transitions
// (lifecycle.go) is specified here once; the sequential engine keeps
// its own transition code so the differential batteries compare two
// independent implementations.
package policy

import (
	"sort"

	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/process"
	"transproc/internal/schedule"
)

// Mode selects the scheduling policy.
type Mode int

const (
	// PRED is the paper's protocol in avoidance flavour: dependencies on
	// active processes are allowed only when the active process's
	// potential completions provably cannot conflict (quasi-commit).
	// No cascading aborts ever occur.
	PRED Mode = iota
	// PREDCascade additionally allows compensatable activities to
	// depend on active backward-recoverable processes (the Figure 7
	// pattern); if such a predecessor aborts, dependents are
	// cascade-aborted in reverse order (Lemma 2) and restarted. Only
	// the sequential engine runs it.
	PREDCascade
	// Serial runs one process at a time (admission-level policy; every
	// per-activity dispatch is allowed).
	Serial
	// Conservative admits a process only when its full service
	// footprint does not conflict with any running process
	// (process-level conservative locking; every per-activity dispatch
	// is allowed).
	Conservative
	// CCOnly orders conflicting activities for serializability but
	// ignores recovery entirely: no deferred commits, no Lemma-1
	// blocking. Under failures it produces non-PRED schedules and can
	// leave inconsistencies (Section 2.2's motivating anomaly).
	CCOnly
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case PRED:
		return "pred"
	case PREDCascade:
		return "pred-cascade"
	case Serial:
		return "serial"
	case Conservative:
		return "conservative"
	case CCOnly:
		return "cc-only"
	default:
		return "unknown"
	}
}

// Config parameterizes the decision rules.
type Config struct {
	Mode Mode
	// BlockPivots switches the PRED modes from "prepare and defer the
	// commit" to "do not even execute non-compensatable activities while
	// conflicting predecessors are active" (ablation mode).
	BlockPivots bool
}

// Phase is the policy-visible lifecycle state of a process.
type Phase int

const (
	// Running processes execute forward work (possibly with queued
	// forward-recovery steps after a non-fatal failure).
	Running Phase = iota
	// Aborting processes drain their completion C(P_i).
	Aborting
	// Done processes have terminated (committed or aborted).
	Done
)

// Proc is one admitted process in the policy's table: the per-process
// facts the decisions read. Engines embed it in their own per-process
// struct, register it with Admit and keep it current under the same
// serial section that calls the decisions.
type Proc struct {
	ID process.ID
	// Arrival is the admission rank used for age-priority tie breaks.
	Arrival int
	// Inst is the process's instance (potential-service-set queries).
	Inst  *process.Instance
	Phase Phase
	// Recovery holds the queued completion steps (compensations and
	// forward invocations not yet executed), head first.
	Recovery []process.Step
	// InFlight maps the in-flight frontier invocations (issued,
	// completion pending): local -> service.
	InFlight map[int]string
	// StepSvc is the service of the in-flight recovery step; "" when
	// none is in flight.
	StepSvc string
}

// StepBusy reports whether a recovery step of p is in flight.
func (p *Proc) StepBusy() bool { return p.StepSvc != "" }

// Event is one effective event in the observed history, used both for
// conflict-graph maintenance and to build the final observed schedule.
type Event struct {
	Seq     int64
	Proc    process.ID
	Local   int
	Service string
	// svc is the interned id of Service, assigned by AppendEvent (-1
	// for non-invocation events); the hot conflict scans run on it.
	svc     int
	Kind    activity.Kind
	Typ     schedule.EventType
	Inverse bool
	// Tentative marks prepared invocations whose commit is deferred;
	// they are erased if rolled back.
	Tentative bool
	Erased    bool
	// Compensated marks base invocations undone later (they stop
	// contributing conflict-graph edges).
	Compensated bool
	Committed   bool // Terminate events: regular C_i
	Group       []process.ID
}

// effective reports whether the event currently contributes
// conflict-graph edges.
func (ev *Event) effective() bool {
	return ev.Typ == schedule.Invoke && !ev.Erased && !ev.Compensated && !ev.Inverse
}

// State is the shared decision state: the event history, the process
// conflict graph with reference counts (edges to/from terminated
// processes included — history matters for serializability), and the
// interned conflict relation.
//
// In the sharded concurrent runtime one State exists per conflict
// shard; the States then share one frozen Universe and each observes
// only the events of its own shard (conflicting services always share
// a shard, so every conflict edge, forced ordering and Lemma gate is
// fully visible inside one State).
type State struct {
	cfg    Config
	u      *Universe
	events []*Event
	edges  map[[2]process.ID]int

	// procs is the process table in admission order (terminated
	// processes included); byID indexes it.
	procs []*Proc
	byID  map[process.ID]*Proc

	// forced-graph cache, invalidated whenever effective events, edges,
	// recovery queues or process states change (Bump).
	version     int64
	fctx        *forcedCtx
	fctxVersion int64

	// scratch buffers reused across decisions (a State is always driven
	// from one goroutine at a time — the engine loop or the shard lock
	// holder — so per-State scratch needs no synchronization).
	predScratch map[process.ID]bool
}

// New creates an empty decision state over a fixed conflict table,
// interning services lazily (single-threaded callers only).
func New(table *conflict.Table, cfg Config) *State {
	return newState(newLazyUniverse(table), cfg)
}

// NewShard creates a decision state over a shared frozen universe —
// the per-shard constructor of the concurrent runtime.
func NewShard(u *Universe, cfg Config) *State {
	return newState(u, cfg)
}

func newState(u *Universe, cfg Config) *State {
	return &State{
		cfg:         cfg,
		u:           u,
		edges:       make(map[[2]process.ID]int),
		byID:        make(map[process.ID]*Proc),
		predScratch: make(map[process.ID]bool),
	}
}

// Table returns the conflict table decisions are made under.
func (s *State) Table() *conflict.Table { return s.u.table }

// Universe returns the service-interning universe of the state.
func (s *State) Universe() *Universe { return s.u }

// Mode returns the configured policy mode.
func (s *State) Mode() Mode { return s.cfg.Mode }

// Bump invalidates the forced-graph cache; engines call it whenever
// they change a Proc in place (dispatch, completion, recovery queue).
func (s *State) Bump() { s.version++ }

// Admit appends p to the process table. The id must be fresh: restart
// incarnations carry derived ids.
func (s *State) Admit(p *Proc) {
	s.procs = append(s.procs, p)
	s.byID[p.ID] = p
	s.Bump()
}

// Procs returns the process table in admission order; callers must not
// mutate the returned slice.
func (s *State) Procs() []*Proc { return s.procs }

// phase is the lifecycle phase of id; Done for ids never admitted.
func (s *State) phase(id process.ID) Phase {
	if p := s.byID[id]; p != nil {
		return p.Phase
	}
	return Done
}

// arrival is the admission rank of id; 0 for ids never admitted.
func (s *State) arrival(id process.ID) int {
	if p := s.byID[id]; p != nil {
		return p.Arrival
	}
	return 0
}

// Conflicts is the interned front end to the conflict table.
func (s *State) Conflicts(a, b string) bool {
	return s.u.Conflicts(a, b)
}

// AppendEvent records an effective event (Seq set by the caller) and
// adds its conflict-graph edges against all earlier effective events.
// Inverse (compensating) events never contribute edges: the pair
// ⟨a a⁻¹⟩ is effect-free, and the Lemma-2 dispatch guard already
// verified no conflicting later work of another process exists before
// the compensation ran.
func (s *State) AppendEvent(ev *Event) {
	ev.svc = -1
	if ev.Typ == schedule.Invoke && ev.Service != "" {
		ev.svc = s.u.intern(ev.Service)
	}
	if ev.Typ == schedule.Invoke && !ev.Inverse {
		for _, old := range s.events {
			if !old.effective() || old.Proc == ev.Proc {
				continue
			}
			if s.u.conflictsID(old.svc, ev.svc) {
				s.addEdge(old.Proc, ev.Proc)
			}
		}
	}
	s.events = append(s.events, ev)
	s.Bump()
}

// Events exposes the raw history (for diagnostics and cascade
// decisions); callers must not mutate the returned slice.
func (s *State) Events() []*Event { return s.events }

func (s *State) addEdge(a, b process.ID) {
	if a == b {
		return
	}
	s.edges[[2]process.ID{a, b}]++
}

// removeEventEdges decrements the edges an event contributed when it is
// erased (rollback) or compensated.
func (s *State) removeEventEdges(ev *Event) {
	for _, old := range s.events {
		if old == ev || !old.effective() || old.Proc == ev.Proc {
			continue
		}
		if s.u.conflictsID(old.svc, ev.svc) {
			var key [2]process.ID
			if old.Seq < ev.Seq {
				key = [2]process.ID{old.Proc, ev.Proc}
			} else {
				key = [2]process.ID{ev.Proc, old.Proc}
			}
			if s.edges[key] > 0 {
				s.edges[key]--
			}
		}
	}
	s.Bump()
}

// EraseTentative erases the live tentative event of (proc, local) —
// a rolled-back prepared invocation — removing its edges. It reports
// whether an event was erased.
func (s *State) EraseTentative(proc process.ID, local int) bool {
	erased := false
	for _, ev := range s.events {
		if ev.Proc == proc && ev.Local == local && ev.Tentative && !ev.Erased {
			ev.Erased = true
			s.removeEventEdges(ev)
			erased = true
		}
	}
	return erased
}

// MarkCompensated marks the live base invocation of (proc, local) as
// compensated; it stops contributing conflict edges.
func (s *State) MarkCompensated(proc process.ID, local int) {
	for _, ev := range s.events {
		if ev.Proc == proc && ev.Local == local && !ev.Inverse && !ev.Compensated && !ev.Erased && ev.Typ == schedule.Invoke {
			ev.Compensated = true
			s.removeEventEdges(ev)
		}
	}
}

// FinalizeTentative commits a tentative event at 2PC time: the activity
// joins the observed schedule at its *commit* point, not its prepare
// point — a prefix cut between prepare and commit must not contain it
// (the subsystem's locks guarantee no conflicting activity ran in
// between, so moving it is conflict-order preserving). The event is
// re-sequenced to newSeq and moved to the end of the history.
func (s *State) FinalizeTentative(proc process.ID, local int, newSeq int64) bool {
	for i, ev := range s.events {
		if ev.Proc == proc && ev.Local == local && ev.Tentative && !ev.Erased {
			ev.Tentative = false
			ev.Seq = newSeq
			s.events = append(append(s.events[:i:i], s.events[i+1:]...), ev)
			s.Bump()
			return true
		}
	}
	return false
}

// BaseSeq returns the history sequence of the live (non-erased,
// non-compensated) base invocation of (proc, local), or 0 when none
// exists. It identifies the position T of Lemma 2's "activity executed
// at T".
func (s *State) BaseSeq(proc process.ID, local int) int64 {
	var seq int64
	for _, ev := range s.events {
		if ev.Proc == proc && ev.Local == local && ev.Typ == schedule.Invoke &&
			!ev.Inverse && !ev.Erased && !ev.Compensated {
			seq = ev.Seq
		}
	}
	return seq
}

// EdgeList returns the positive conflict-graph edges (diagnostics).
func (s *State) EdgeList() [][2]process.ID {
	out := make([][2]process.ID, 0, len(s.edges))
	for k, n := range s.edges {
		if n > 0 {
			out = append(out, k)
		}
	}
	return out
}

// BuildSchedule materializes the observed process schedule from the
// finalized events; it can be checked with PRED(), Serializable() and
// ProcessRecoverable().
func (s *State) BuildSchedule(procs []*process.Process) *schedule.Schedule {
	sched := schedule.MustNew(s.u.table.Clone())
	for _, p := range procs {
		if err := sched.AddProcess(p); err != nil {
			panic(err)
		}
	}
	for _, ev := range s.events {
		if ev.Erased || ev.Tentative {
			continue
		}
		sched.AppendUnchecked(schedule.Event{
			Type: ev.Typ, Proc: ev.Proc, Local: ev.Local, Service: ev.Service,
			Kind: ev.Kind, Inverse: ev.Inverse, Committed: ev.Committed, Group: ev.Group,
		})
	}
	return sched
}

// MergeSchedules materializes one observed schedule from several shard
// states' histories, interleaved by the engine's global sequence
// numbers. Events of different shards never conflict (conflicting
// services always share a shard), so any seq-consistent interleaving is
// conflict-equivalent; sorting by Seq reproduces the real-time order in
// which the engine finalized them.
func MergeSchedules(table *conflict.Table, procs []*process.Process, states []*State) *schedule.Schedule {
	sched := schedule.MustNew(table.Clone())
	for _, p := range procs {
		if err := sched.AddProcess(p); err != nil {
			panic(err)
		}
	}
	var evs []*Event
	for _, s := range states {
		for _, ev := range s.events {
			if ev.Erased || ev.Tentative {
				continue
			}
			evs = append(evs, ev)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	for _, ev := range evs {
		sched.AppendUnchecked(schedule.Event{
			Type: ev.Typ, Proc: ev.Proc, Local: ev.Local, Service: ev.Service,
			Kind: ev.Kind, Inverse: ev.Inverse, Committed: ev.Committed, Group: ev.Group,
		})
	}
	return sched
}
