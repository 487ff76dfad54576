package policy

import (
	"fmt"

	"transproc/internal/activity"
	"transproc/internal/process"
	"transproc/internal/schedule"
)

// HasActiveConflictPred reports whether any non-terminated process has
// an edge into id in the conflict graph — Lemma 1's commit-deferral
// condition.
func (s *State) HasActiveConflictPred(id process.ID) bool {
	for k, n := range s.edges {
		if n <= 0 || k[1] != id {
			continue
		}
		if s.phase(k[0]) != Done {
			return true
		}
	}
	return false
}

// ActiveConflictPreds lists the non-terminated processes with an edge
// into id — the processes a Lemma-1 commit deferral is waiting on. The
// deferral resolves only when all of them terminated, so the list is
// the AND-set of one wait-for alternative in the runtime's deadlock
// detector.
func (s *State) ActiveConflictPreds(id process.ID) []process.ID {
	var out []process.ID
	for k, n := range s.edges {
		if n <= 0 || k[1] != id {
			continue
		}
		if s.phase(k[0]) != Done {
			out = append(out, k[0])
		}
	}
	return out
}

// DispatchBlockers lists the active predecessors on which MayDispatch's
// Lemma-1 loop would deny a regular dispatch of a by id: the processes
// that must all terminate (or become exempt by acting) before the
// activity can run. An empty result means the denial — if any — came
// from a rule without pred-wait semantics (forced-order acyclicity, the
// ablation pivot gate, or a non-PRED mode), so the caller has no edge
// information and must fall back to quiescence-based stall handling.
func (s *State) DispatchBlockers(id process.ID, a *process.Activity) []process.ID {
	switch s.cfg.Mode {
	case Serial, Conservative, CCOnly:
		return nil
	}
	svcID := s.u.intern(a.Service)
	if !anyBit(s.u.mask(svcID)) {
		return nil
	}
	var out []process.ID
	for q := range s.conflictPreds(id, svcID) {
		if s.phase(q) == Done {
			continue
		}
		if s.safeQuasiCommit(q, svcID) {
			continue
		}
		if s.cfg.Mode == PREDCascade && a.Kind == activity.Compensatable && s.phase(q) == Running &&
			s.arrival(q) <= s.arrival(id) && !s.forwardConflict(q, a.Service) {
			continue
		}
		out = append(out, q)
	}
	return out
}

// FirstActivePred names one active conflicting predecessor of id — the
// process a deferred commit is waiting on (trace detail for the
// defer-commit decision). Which one is named is arbitrary when several
// exist; "" when none.
func (s *State) FirstActivePred(id process.ID) string {
	for k, n := range s.edges {
		if n <= 0 || k[1] != id {
			continue
		}
		if s.phase(k[0]) != Done {
			return string(k[0])
		}
	}
	return ""
}

// wouldCycle reports whether adding edges from the given predecessors to
// `to` closes a cycle in the conflict graph.
func (s *State) wouldCycle(preds map[process.ID]bool, to process.ID) bool {
	// DFS from `to` over positive edges; if we reach any pred, the new
	// edge pred->to closes a cycle.
	stack := []process.ID{to}
	seen := map[process.ID]bool{}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		if n != to && preds[n] {
			return true
		}
		for k, cnt := range s.edges {
			if cnt > 0 && k[0] == n {
				stack = append(stack, k[1])
			}
		}
	}
	return false
}

// conflictPreds returns, for a prospective activity of id, the set of
// processes with an earlier effective conflicting event (executed or in
// flight). The returned map is scratch, valid until the next
// conflictPreds call on this state.
func (s *State) conflictPreds(id process.ID, svcID int) map[process.ID]bool {
	preds := s.predScratch
	clear(preds)
	fc := s.forced()
	mask := s.u.mask(svcID)
	for svc, owners := range fc.bySvc {
		if len(owners) == 0 {
			continue
		}
		if w := svc / 64; w >= len(mask) || mask[w]&(1<<(uint(svc)%64)) == 0 {
			continue
		}
		for _, p := range owners {
			if p != id {
				preds[p] = true
			}
		}
	}
	return preds
}

// MayDispatch implements the per-activity scheduling rules for a regular
// (non-recovery) invocation of the given activity by process id. When
// denied, the returned string names the rule.
func (s *State) MayDispatch(id process.ID, a *process.Activity) (bool, string) {
	switch s.cfg.Mode {
	case Serial, Conservative:
		return true, "" // admission already serialized conflicts
	}
	svcID := s.u.intern(a.Service)
	// Conflict-free services can never gain predecessors, force an
	// ordering or close a cycle — only the ablation-mode pivot gate can
	// still apply. This skips the forced-context machinery entirely for
	// the commutative bulk of a workload.
	if !anyBit(s.u.mask(svcID)) {
		if s.cfg.Mode != CCOnly && s.cfg.BlockPivots && a.Kind.NonCompensatable() && s.HasActiveConflictPred(id) {
			return false, "pivot blocked until predecessors terminate (ablation mode)"
		}
		return true, ""
	}
	preds := s.conflictPreds(id, svcID)
	if s.cfg.Mode == CCOnly {
		if len(preds) == 0 {
			return true, ""
		}
		if s.wouldCycle(preds, id) {
			return false, "serializability: edge would close a cycle"
		}
		return true, ""
	}
	// PRED modes: dependencies on active processes are restricted.
	for q := range preds {
		if s.phase(q) == Done {
			continue
		}
		if s.safeQuasiCommit(q, svcID) {
			continue
		}
		if s.cfg.Mode == PREDCascade && a.Kind == activity.Compensatable && s.phase(q) == Running &&
			s.arrival(q) <= s.arrival(id) && !s.forwardConflict(q, a.Service) {
			// Figure-7 pattern: a compensatable activity may depend on
			// an active process — if that process unwinds, the
			// dependent is cascade-aborted first (Lemma 2 order). Two
			// guards keep this from wedging: none of the predecessor's
			// still-uncommitted services may conflict (a conflicting
			// forward-recovery activity could not be cancelled, and a
			// conflicting regular activity would later be blocked by
			// *our* new survivor, wedging the predecessor behind its
			// own follower); and dependencies may only point from older
			// to younger processes (age priority), keeping the
			// wait-for relation among deferred commits acyclic.
			continue
		}
		return false, fmt.Sprintf("recovery: depends on active process %s (Lemma 1)", q)
	}
	// The dispatch must keep the forced ordering graph of the completed
	// current schedule acyclic (prefix-reducibility, maintained
	// inductively).
	fc := s.forced()
	if !fc.acyclicWith(fc.newEdges(id, svcID, false)) {
		return false, "completed-schedule ordering would become cyclic"
	}
	if s.cfg.BlockPivots && a.Kind.NonCompensatable() && s.HasActiveConflictPred(id) {
		return false, "pivot blocked until predecessors terminate (ablation mode)"
	}
	return true, ""
}

// safeQuasiCommit reports whether q can no longer produce a recovery
// activity conflicting with the service: q is forward-recoverable and
// none of its potential recovery services conflicts (Example 10). The
// potential set is read from the round's forced context (same state
// version, so it is current).
func (s *State) safeQuasiCommit(q process.ID, svcID int) bool {
	p := s.byID[q]
	if p == nil || p.Phase != Running || p.Inst.Mode() != process.FREC {
		return false
	}
	return !intersects(s.forced().pots[q], s.u.mask(svcID))
}

// forwardConflict reports whether q's potential forward recovery
// services conflict with the given service.
func (s *State) forwardConflict(q process.ID, service string) bool {
	p := s.byID[q]
	if p == nil {
		return false
	}
	for svc := range p.Inst.PotentialForwardServices() {
		if s.u.Conflicts(svc, service) {
			return true
		}
	}
	return false
}

// Lemma1ClearForward gates a forward-recovery invocation (StepInvoke):
// it must not conflict-follow an effective activity of an active
// process that could still need a conflicting recovery of its own
// (the "arbitrary conflicts can be introduced to S̃" hazard of
// Section 3.5). Aborting processes are waited for only through their
// queued compensations (Lemma3Clear); their remaining forward paths
// merely order against ours.
func (s *State) Lemma1ClearForward(id process.ID, st process.Step) bool {
	svcID := s.u.intern(st.Service)
	if !anyBit(s.u.mask(svcID)) {
		return true
	}
	for q := range s.conflictPreds(id, svcID) {
		if ph := s.phase(q); ph == Done || ph == Aborting {
			continue
		}
		if !s.safeQuasiCommit(q, svcID) {
			return false
		}
	}
	return true
}

// Lemma2Clear enforces the cross-process reverse order of compensations:
// the compensation of an activity executed at sequence T must wait while
// another active process still has effective conflicting work executed
// after T (that process compensates first — it is cascading).
func (s *State) Lemma2Clear(id process.ID, st process.Step) bool {
	svcID := s.u.intern(st.Service)
	if !anyBit(s.u.mask(svcID)) {
		return true
	}
	baseSeq := s.BaseSeq(id, st.Local)
	for _, ev := range s.events {
		if ev.Proc == id || !ev.effective() {
			continue
		}
		if ev.Seq <= baseSeq {
			continue
		}
		if s.phase(ev.Proc) == Done {
			continue
		}
		if s.u.conflictsID(ev.svc, svcID) {
			return false
		}
	}
	return true
}

// Lemma3Clear defers a forward-recovery invocation while another active
// process has a conflicting compensation still queued: compensations
// precede conflicting retriable activities in the completion (Lemma 3).
func (s *State) Lemma3Clear(id process.ID, st process.Step) bool {
	if !anyBit(s.u.mask(s.u.intern(st.Service))) {
		return true
	}
	for _, o := range s.procs {
		if o.ID == id || o.Phase == Done {
			continue
		}
		for _, os := range o.Recovery {
			if os.Kind == process.StepCompensate && s.u.Conflicts(os.Service, st.Service) {
				return false
			}
		}
	}
	return true
}

// StepForcedClear checks a forward-recovery step against the forced
// ordering graph: wait while the step's new edges close a cycle that
// waiting can still break (some process on the cycle path is active). A
// cycle whose other participants already terminated cannot be avoided —
// the completion step must run eventually, so it proceeds.
func (s *State) StepForcedClear(id process.ID, st process.Step) bool {
	svcID := s.u.intern(st.Service)
	if !anyBit(s.u.mask(svcID)) {
		return true
	}
	fc := s.forced()
	return fc.acyclicWithActive(fc.newEdges(id, svcID, true), func(q process.ID) bool {
		return s.phase(q) != Done
	})
}

// DeferToAborting defers a forward-recovery step to aborting processes
// whose queued conflicting forward steps are forced before ours. When
// forced paths exist in both directions (over-approximated soft edges),
// the tie breaks by age then id, so exactly one side proceeds and the
// mutual wait cannot deadlock. It returns the process deferred to, if
// any.
func (s *State) DeferToAborting(id process.ID, st process.Step) (process.ID, bool) {
	if !anyBit(s.u.mask(s.u.intern(st.Service))) {
		return "", false
	}
	fc := s.forced()
	for _, o := range s.procs {
		if o.ID == id || o.Phase != Aborting {
			continue
		}
		for _, os := range o.Recovery {
			if os.Kind != process.StepInvoke || !s.u.Conflicts(os.Service, st.Service) {
				continue
			}
			if !fc.pathExists(o.ID, id) {
				continue
			}
			if fc.pathExists(id, o.ID) {
				// Mutual: older (or lower id) goes first.
				if s.arrival(id) < o.Arrival || (s.arrival(id) == o.Arrival && id < o.ID) {
					continue
				}
			}
			return o.ID, true
		}
	}
	return "", false
}

// CascadeVictims selects the running processes that must cascade-abort
// when `of` aborts and will compensate conflicting work (PREDCascade
// mode): a dependent q cascades only if it holds effective
// (uncompensated) work that conflicts with one of of's upcoming
// compensations and was executed *after* the compensated base — only
// then would the base's compensation pair be blocked (Lemma 2 demands
// q's conflicting work unwinds first). Callers filter processes whose
// abort is already pending.
func (s *State) CascadeVictims(of process.ID, recovery []process.Step) []process.ID {
	if s.cfg.Mode != PREDCascade {
		return nil
	}
	// Which bases will `of` compensate, and from which position on?
	type comp struct {
		svcID   int
		baseSeq int64
	}
	comps := make([]comp, 0, len(recovery))
	for _, st := range recovery {
		if st.Kind == process.StepCompensate {
			comps = append(comps, comp{s.u.intern(st.Service), s.BaseSeq(of, st.Local)})
		}
	}
	if len(comps) == 0 {
		return nil
	}
	var victims []process.ID
	for k, n := range s.edges {
		if n <= 0 || k[0] != of {
			continue
		}
		q := k[1]
		if s.phase(q) != Running {
			continue
		}
		depends := false
		for _, ev := range s.events {
			if ev.Proc != q || !ev.effective() {
				continue
			}
			for _, c := range comps {
				if ev.Seq > c.baseSeq && s.u.conflictsID(ev.svc, c.svcID) {
					depends = true
					break
				}
			}
			if depends {
				break
			}
		}
		if depends {
			victims = append(victims, q)
		}
	}
	return victims
}

// String renders one effective-history line (diagnostics).
func (ev *Event) String() string {
	if ev.Typ != schedule.Invoke {
		return fmt.Sprintf("seq=%d %s %v", ev.Seq, ev.Proc, ev.Typ)
	}
	return fmt.Sprintf("seq=%d %s/%d %s inv=%v tent=%v comp=%v erased=%v",
		ev.Seq, ev.Proc, ev.Local, ev.Service, ev.Inverse, ev.Tentative, ev.Compensated, ev.Erased)
}
