package policy

import (
	"transproc/internal/activity"
	"transproc/internal/process"
	"transproc/internal/schedule"
)

// The transitions below are the policy-side half of the process
// lifecycle that the concurrent runtime and the federation hub both
// perform: the instance transition plus its history event, at the
// sequence number (runtime) or hub stamp the caller allocates. WAL
// records, stamps, 2PC, subsystem calls and metrics stay with the
// caller. The sequential engine does not use them: it is the
// differential oracle, and its transition code stays independently
// written.

// CommitNow is the commit-now-or-defer rule for a prepared frontier
// activity of p: compensatable activities, and every activity outside
// the PRED modes, commit immediately; anything else commits only while
// p has no active conflicting predecessor, else Lemma 1 defers it.
func (s *State) CommitNow(p *Proc, kind activity.Kind) bool {
	if kind == activity.Compensatable {
		return true
	}
	switch s.cfg.Mode {
	case CCOnly, Serial, Conservative:
		return true
	}
	return !s.HasActiveConflictPred(p.ID)
}

// Commit records a frontier activity committed at seq.
func (s *State) Commit(p *Proc, local int, service string, kind activity.Kind, seq int64) error {
	if err := p.Inst.MarkCommitted(local); err != nil {
		return err
	}
	s.AppendEvent(&Event{Seq: seq, Proc: p.ID, Local: local, Service: service, Kind: kind, Typ: schedule.Invoke})
	return nil
}

// Defer records a frontier activity whose commit Lemma 1 defers: the
// instance holds it prepared and its event, appended at seq, stays
// tentative until Finalize (or EraseTentative on rollback).
func (s *State) Defer(p *Proc, local int, service string, kind activity.Kind, seq int64) error {
	if err := p.Inst.MarkPrepared(local); err != nil {
		return err
	}
	s.AppendEvent(&Event{
		Seq: seq, Proc: p.ID, Local: local, Service: service, Kind: kind,
		Typ: schedule.Invoke, Tentative: true,
	})
	return nil
}

// Fail performs a definitive activity failure (Definition 4): the
// FailedInvoke event at seq, then the instance's failure plan. A
// pending abort (superseded) overrides the plan. Otherwise a plan that
// keeps the process running (a ◁ alternative or forward recovery)
// queues its steps, and a backward-recovery plan begins the abort, its
// AbortBegin event at abortSeq() — drawn only then. It reports whether
// the process began aborting.
func (s *State) Fail(p *Proc, local int, service string, kind activity.Kind, seq int64,
	superseded bool, abortSeq func() int64) (aborting bool, err error) {
	s.AppendEvent(&Event{
		Seq: seq, Proc: p.ID, Local: local, Service: service, Kind: kind, Typ: schedule.FailedInvoke,
	})
	plan, err := p.Inst.MarkFailed(local)
	if err != nil {
		return false, err
	}
	s.Bump() // the instance moved: its potential completions changed
	if superseded {
		return false, nil
	}
	if plan.Abort {
		s.beginAbort(p, plan.Steps, abortSeq())
		return true, nil
	}
	p.Recovery = plan.Steps
	return false, nil
}

// Abort begins backward recovery of p: the instance's completion
// C(P_i) becomes the recovery queue and the AbortBegin event lands at
// seq.
func (s *State) Abort(p *Proc, seq int64) error {
	steps, err := p.Inst.Abort()
	if err != nil {
		return err
	}
	s.beginAbort(p, steps, seq)
	return nil
}

func (s *State) beginAbort(p *Proc, steps []process.Step, seq int64) {
	p.Phase = Aborting
	p.Recovery = steps
	s.AppendEvent(&Event{Seq: seq, Proc: p.ID, Typ: schedule.AbortBegin})
}

// StepDone records the committed recovery step st of p at seq: the
// step leaves the head of the queue, a compensation retires its base
// invocation and appends the inverse event, a forward-recovery step
// appends its invocation (of the given activity kind), and the
// instance applies the step.
func (s *State) StepDone(p *Proc, st process.Step, kind activity.Kind, seq int64) error {
	if len(p.Recovery) > 0 && p.Recovery[0] == st {
		p.Recovery = p.Recovery[1:]
	}
	ev := &Event{Seq: seq, Proc: p.ID, Local: st.Local, Service: st.Service, Kind: kind, Typ: schedule.Invoke}
	if st.Kind == process.StepCompensate {
		s.MarkCompensated(p.ID, st.Local)
		ev.Kind = activity.Compensation
		ev.Inverse = true
	}
	s.AppendEvent(ev)
	return p.Inst.ApplyStep(st)
}

// Finalize commits one prepared 2PC participant of p: the instance
// marks it committed and its tentative event moves to seq, the
// participant's commit point.
func (s *State) Finalize(p *Proc, local int, seq int64) error {
	if err := p.Inst.MarkCommitted(local); err != nil {
		return err
	}
	s.FinalizeTentative(p.ID, local, seq)
	s.Bump()
	return nil
}

// Terminate ends p: its phase becomes Done, the Terminate event lands
// at seq and the instance is marked terminated.
func (s *State) Terminate(p *Proc, committed bool, seq int64) {
	p.Phase = Done
	s.AppendEvent(&Event{Seq: seq, Proc: p.ID, Typ: schedule.Terminate, Committed: committed})
	p.Inst.MarkTerminated(committed)
}
