package policy_test

import (
	"strings"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler/policy"
)

// table is the hand-built conflict relation the rule tests run under.
// Compensations share their base's conflicts.
func table() *conflict.Table {
	t := conflict.NewTable()
	for _, s := range []string{"a", "b", "writeX", "readX"} {
		t.MapBase(process.DefaultCompensationName(s), s)
	}
	t.AddConflict("a", "b")
	t.AddConflict("a", "c")
	t.AddConflict("ret", "c")
	t.AddConflict("writeX", "readX")
	t.AddConflict("x", "y")
	t.AddConflict("x", "z")
	return t
}

// proc builds a table entry for p whose listed locals have committed.
func proc(t *testing.T, p *process.Process, arrival int, committed ...int) *policy.Proc {
	t.Helper()
	inst := process.NewInstance(p)
	for _, l := range committed {
		if err := inst.MarkCommitted(l); err != nil {
			t.Fatal(err)
		}
	}
	return &policy.Proc{ID: p.ID, Arrival: arrival, Inst: inst, InFlight: map[int]string{}}
}

// executed appends the committed invocation event of p's activity.
func executed(s *policy.State, p *policy.Proc, local int, seq int64) {
	a := p.Inst.Process().Activity(local)
	s.AppendEvent(&policy.Event{Seq: seq, Proc: p.ID, Local: local, Service: a.Service, Kind: a.Kind, Typ: schedule.Invoke})
}

// single is a one-activity process.
func single(id process.ID, service string, kind activity.Kind) *process.Process {
	return process.NewBuilder(id).Add(1, service, kind).MustBuild()
}

// pivotAfter is "service ≪ pivot" — backward-recoverable until the
// pivot commits.
func pivotAfter(id process.ID, service string) *process.Process {
	return process.NewBuilder(id).
		Add(1, service, activity.Compensatable).
		Add(2, "gate", activity.Pivot).
		Seq(1, 2).MustBuild()
}

// TestCommitNow pins Lemma 1's commit-now-or-defer rule: a prepared
// non-compensatable activity waits while an active process precedes
// its process in the conflict graph.
func TestCommitNow(t *testing.T) {
	tt := []struct {
		name     string
		mode     policy.Mode
		kind     activity.Kind
		predDone bool
		want     bool
	}{
		{"pivot defers behind an active predecessor", policy.PRED, activity.Pivot, false, false},
		{"pivot commits once the predecessor terminated", policy.PRED, activity.Pivot, true, true},
		{"compensatable commits now", policy.PRED, activity.Compensatable, false, true},
		{"retriable defers like a pivot", policy.PRED, activity.Retriable, false, false},
		{"cc-only never defers", policy.CCOnly, activity.Pivot, false, true},
	}
	for _, tc := range tt {
		t.Run(tc.name, func(t *testing.T) {
			s := policy.New(table(), policy.Config{Mode: tc.mode})
			p1 := proc(t, single("P1", "a", activity.Compensatable), 0, 1)
			p2 := proc(t, single("P2", "b", activity.Compensatable), 1, 1)
			s.Admit(p1)
			s.Admit(p2)
			executed(s, p1, 1, 1)
			executed(s, p2, 1, 2)
			if tc.predDone {
				p1.Phase = policy.Done
			}
			if got := s.CommitNow(p2, tc.kind); got != tc.want {
				t.Fatalf("CommitNow = %v, want %v", got, tc.want)
			}
			if got := s.HasActiveConflictPred("P2"); got == tc.predDone {
				t.Fatalf("HasActiveConflictPred = %v with predecessor done=%v", got, tc.predDone)
			}
		})
	}
}

// TestQuasiCommit pins Example 10: a dependency on an active process is
// admitted when that process is forward-recoverable and none of its
// potential recovery services conflicts with the new activity.
func TestQuasiCommit(t *testing.T) {
	frec := process.NewBuilder("P1").
		Add(1, "a", activity.Compensatable).
		Add(2, "piv", activity.Pivot).
		Add(3, "ret", activity.Retriable).
		Seq(1, 2).Seq(2, 3).MustBuild()
	tt := []struct {
		name      string
		committed []int // P1's committed activities
		p1Done    bool
		service   string // P2's dispatch, conflicting with P1's a
		want      bool
		reason    string
	}{
		{"forward-recoverable predecessor admits", []int{1, 2}, false, "b", true, ""},
		{"potential recovery conflict refuses", []int{1, 2}, false, "c", false, "(Lemma 1)"},
		{"backward-recoverable predecessor refuses", []int{1}, false, "b", false, "depends on active process P1"},
		{"terminated predecessor admits", []int{1}, true, "b", true, ""},
	}
	for _, tc := range tt {
		t.Run(tc.name, func(t *testing.T) {
			s := policy.New(table(), policy.Config{Mode: policy.PRED})
			p1 := proc(t, frec, 0, tc.committed...)
			p2 := proc(t, single("P2", tc.service, activity.Compensatable), 1)
			s.Admit(p1)
			s.Admit(p2)
			executed(s, p1, 1, 1)
			if tc.p1Done {
				p1.Phase = policy.Done
			}
			ok, why := s.MayDispatch("P2", p2.Inst.Process().Activity(1))
			if ok != tc.want || !strings.Contains(why, tc.reason) {
				t.Fatalf("MayDispatch = (%v, %q), want (%v, …%s…)", ok, why, tc.want, tc.reason)
			}
			if blockers := s.DispatchBlockers("P2", p2.Inst.Process().Activity(1)); (len(blockers) > 0) == tc.want {
				t.Fatalf("DispatchBlockers = %v, inconsistent with MayDispatch = %v", blockers, ok)
			}
		})
	}
}

// TestLemma2Order pins the cross-process reverse order of
// compensations: a's compensation waits while another active process
// holds conflicting work executed after a.
func TestLemma2Order(t *testing.T) {
	tt := []struct {
		name        string
		p2First     bool // P2's b executed before P1's a
		p2Done      bool
		compensated bool // P2's b already compensated
		want        bool
	}{
		{"later conflicting work of an active process blocks", false, false, false, false},
		{"earlier conflicting work does not block", true, false, false, true},
		{"terminated successor does not block", false, true, false, true},
		{"compensated successor work does not block", false, false, true, true},
	}
	for _, tc := range tt {
		t.Run(tc.name, func(t *testing.T) {
			s := policy.New(table(), policy.Config{Mode: policy.PRED})
			p1 := proc(t, single("P1", "a", activity.Compensatable), 0, 1)
			p2 := proc(t, single("P2", "b", activity.Compensatable), 1, 1)
			s.Admit(p1)
			s.Admit(p2)
			if tc.p2First {
				executed(s, p2, 1, 1)
				executed(s, p1, 1, 2)
			} else {
				executed(s, p1, 1, 1)
				executed(s, p2, 1, 2)
			}
			if tc.p2Done {
				p2.Phase = policy.Done
			}
			if tc.compensated {
				s.MarkCompensated("P2", 1)
			}
			if err := s.Abort(p1, 3); err != nil {
				t.Fatal(err)
			}
			if len(p1.Recovery) != 1 || p1.Recovery[0].Kind != process.StepCompensate {
				t.Fatalf("completion of P1 = %v, want one compensation", p1.Recovery)
			}
			if got := s.Lemma2Clear("P1", p1.Recovery[0]); got != tc.want {
				t.Fatalf("Lemma2Clear = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestLemma3Order pins that a forward-recovery step waits while another
// active process still has a conflicting compensation queued:
// compensations precede conflicting retriable activities in the
// completion.
func TestLemma3Order(t *testing.T) {
	tt := []struct {
		name    string
		drained bool // P1 already ran its compensation
		want    bool
	}{
		{"queued conflicting compensation blocks", false, false},
		{"drained compensation admits", true, true},
	}
	for _, tc := range tt {
		t.Run(tc.name, func(t *testing.T) {
			s := policy.New(table(), policy.Config{Mode: policy.PRED})
			p1 := proc(t, pivotAfter("P1", "a"), 0, 1)
			p2 := proc(t, process.NewBuilder("P2").
				Add(1, "gate", activity.Pivot).
				Add(2, "c", activity.Retriable).
				Seq(1, 2).MustBuild(), 1, 1)
			s.Admit(p1)
			s.Admit(p2)
			executed(s, p1, 1, 1)
			executed(s, p2, 1, 2)
			if err := s.Abort(p1, 3); err != nil {
				t.Fatal(err)
			}
			if err := s.Abort(p2, 4); err != nil {
				t.Fatal(err)
			}
			if tc.drained {
				if err := s.StepDone(p1, p1.Recovery[0], activity.Compensatable, 5); err != nil {
					t.Fatal(err)
				}
			}
			st := p2.Recovery[0]
			if got := s.Lemma3Clear("P2", st); got != tc.want {
				t.Fatalf("Lemma3Clear = %v, want %v", got, tc.want)
			}
			if !s.Lemma1ClearForward("P2", st) || !s.StepForcedClear("P2", st) {
				t.Fatal("no other gate may hold the forward step")
			}
			if o, deferred := s.DeferToAborting("P2", st); deferred {
				t.Fatalf("forward step deferred to %s, which queues no forward step", o)
			}
		})
	}
}

// TestForcedCycleRefused pins the inductive prefix-reducibility guard:
// a dispatch whose forced edges close a cycle with the history is
// refused, even when every predecessor already terminated.
func TestForcedCycleRefused(t *testing.T) {
	tt := []struct {
		name    string
		history bool // P2 executed y before P1's x: edge P2→P1
		want    bool
	}{
		{"edge back into the history refuses", true, false},
		{"no opposite path admits", false, true},
	}
	for _, tc := range tt {
		t.Run(tc.name, func(t *testing.T) {
			s := policy.New(table(), policy.Config{Mode: policy.PRED})
			p1 := proc(t, single("P1", "x", activity.Compensatable), 0, 1)
			p2 := proc(t, process.NewBuilder("P2").
				Add(1, "y", activity.Compensatable).
				Add(2, "z", activity.Compensatable).Seq(1, 2).MustBuild(), 1)
			s.Admit(p1)
			s.Admit(p2)
			if tc.history {
				if err := p2.Inst.MarkCommitted(1); err != nil {
					t.Fatal(err)
				}
				executed(s, p2, 1, 1)
			}
			executed(s, p1, 1, 2)
			p1.Phase = policy.Done
			ok, why := s.MayDispatch("P2", p2.Inst.Process().Activity(2))
			if ok != tc.want {
				t.Fatalf("MayDispatch = (%v, %q), want %v", ok, why, tc.want)
			}
			if !ok && !strings.Contains(why, "would become cyclic") {
				t.Fatalf("refusal reason %q does not name the forced-graph cycle", why)
			}
		})
	}
}

// TestCascadeFigure7Refused pins that PREDCascade's Figure-7 branch never
// takes effect: the cascade rule lets readX depend on the active P1,
// but readX conflicts both with P1's executed writeX (P1→P2) and with
// writeX's potential compensation (P2→P1), a two-cycle the forced-graph
// check refuses.
func TestCascadeFigure7Refused(t *testing.T) {
	tt := []struct {
		mode   policy.Mode
		reason string
	}{
		{policy.PREDCascade, "would become cyclic"},
		{policy.PRED, "(Lemma 1)"},
	}
	for _, tc := range tt {
		t.Run(tc.mode.String(), func(t *testing.T) {
			s := policy.New(table(), policy.Config{Mode: tc.mode})
			p1 := proc(t, pivotAfter("P1", "writeX"), 0, 1)
			p2 := proc(t, single("P2", "readX", activity.Compensatable), 1)
			s.Admit(p1)
			s.Admit(p2)
			executed(s, p1, 1, 1)
			ok, why := s.MayDispatch("P2", p2.Inst.Process().Activity(1))
			if ok || !strings.Contains(why, tc.reason) {
				t.Fatalf("MayDispatch = (%v, %q), want refusal naming %q", ok, why, tc.reason)
			}
			edges := s.ForcedEdgesFor("P2", "readX", false)
			has := func(a, b process.ID) bool {
				for _, e := range edges {
					if e == [2]process.ID{a, b} {
						return true
					}
				}
				return false
			}
			if !has("P1", "P2") || !has("P2", "P1") {
				t.Fatalf("forced edges %v, want the two-cycle P1↔P2", edges)
			}
		})
	}
}

// TestTransitions drives each lifted lifecycle transition on a fresh
// table and checks the phase, queue, instance and history it leaves.
func TestTransitions(t *testing.T) {
	last := func(s *policy.State) *policy.Event {
		evs := s.Events()
		return evs[len(evs)-1]
	}
	never := func() int64 { panic("abort sequence drawn without an abort") }
	tt := []struct {
		name  string
		def   *process.Process
		done  []int // committed before the transition
		apply func(t *testing.T, s *policy.State, p *policy.Proc)
	}{
		{"commit", single("P", "a", activity.Compensatable), nil, func(t *testing.T, s *policy.State, p *policy.Proc) {
			if err := s.Commit(p, 1, "a", activity.Compensatable, 5); err != nil {
				t.Fatal(err)
			}
			if ev := last(s); p.Inst.Status(1) != process.Committed || ev.Seq != 5 || ev.Tentative {
				t.Fatalf("status %v, event %v", p.Inst.Status(1), ev)
			}
		}},
		{"defer then finalize", pivotAfter("P", "a"), []int{1}, func(t *testing.T, s *policy.State, p *policy.Proc) {
			if err := s.Defer(p, 2, "gate", activity.Pivot, 5); err != nil {
				t.Fatal(err)
			}
			if ev := last(s); p.Inst.Status(2) != process.Prepared || !ev.Tentative {
				t.Fatalf("deferred: status %v, event %v", p.Inst.Status(2), ev)
			}
			if err := s.Finalize(p, 2, 9); err != nil {
				t.Fatal(err)
			}
			if ev := last(s); p.Inst.Status(2) != process.Committed || ev.Tentative || ev.Seq != 9 || ev.Local != 2 {
				t.Fatalf("finalized: status %v, event %v", p.Inst.Status(2), ev)
			}
		}},
		{"fail with an alternative", process.NewBuilder("P").
			Add(1, "a", activity.Compensatable).
			Add(2, "gate", activity.Pivot).
			Add(3, "ret", activity.Retriable).
			Chain(1, 2, 3).MustBuild(), []int{1}, func(t *testing.T, s *policy.State, p *policy.Proc) {
			aborting, err := s.Fail(p, 2, "gate", activity.Pivot, 5, false, never)
			if err != nil || aborting {
				t.Fatalf("Fail = (%v, %v), want the ◁ alternative", aborting, err)
			}
			if ev := last(s); p.Phase != policy.Running || ev.Typ != schedule.FailedInvoke || ev.Seq != 5 {
				t.Fatalf("phase %v, event %v", p.Phase, ev)
			}
		}},
		{"fail into backward recovery", pivotAfter("P", "a"), []int{1}, func(t *testing.T, s *policy.State, p *policy.Proc) {
			aborting, err := s.Fail(p, 2, "gate", activity.Pivot, 5, false, func() int64 { return 6 })
			if err != nil || !aborting {
				t.Fatalf("Fail = (%v, %v), want backward recovery", aborting, err)
			}
			if ev := last(s); p.Phase != policy.Aborting || len(p.Recovery) != 1 || ev.Typ != schedule.AbortBegin || ev.Seq != 6 {
				t.Fatalf("phase %v, recovery %v, event %v", p.Phase, p.Recovery, ev)
			}
		}},
		{"fail superseded by a pending abort", pivotAfter("P", "a"), []int{1}, func(t *testing.T, s *policy.State, p *policy.Proc) {
			aborting, err := s.Fail(p, 2, "gate", activity.Pivot, 5, true, never)
			if err != nil || aborting || p.Phase != policy.Running || p.Recovery != nil {
				t.Fatalf("Fail = (%v, %v), phase %v, recovery %v", aborting, err, p.Phase, p.Recovery)
			}
		}},
		{"compensation step", pivotAfter("P", "a"), []int{1}, func(t *testing.T, s *policy.State, p *policy.Proc) {
			if err := s.Abort(p, 5); err != nil {
				t.Fatal(err)
			}
			st := p.Recovery[0]
			if err := s.StepDone(p, st, activity.Compensatable, 6); err != nil {
				t.Fatal(err)
			}
			ev := last(s)
			if len(p.Recovery) != 0 || !ev.Inverse || ev.Kind != activity.Compensation || s.BaseSeq("P", 1) != 0 {
				t.Fatalf("recovery %v, event %v, base seq %d", p.Recovery, ev, s.BaseSeq("P", 1))
			}
			if p.Inst.Status(1) != process.Compensated {
				t.Fatalf("status %v, want compensated", p.Inst.Status(1))
			}
		}},
		{"forward-recovery step", process.NewBuilder("P").
			Add(1, "gate", activity.Pivot).
			Add(2, "ret", activity.Retriable).
			Seq(1, 2).MustBuild(), []int{1}, func(t *testing.T, s *policy.State, p *policy.Proc) {
			if err := s.Abort(p, 5); err != nil {
				t.Fatal(err)
			}
			if len(p.Recovery) != 1 || p.Recovery[0].Kind != process.StepInvoke {
				t.Fatalf("forward completion %v, want one invocation", p.Recovery)
			}
			if err := s.StepDone(p, p.Recovery[0], activity.Retriable, 6); err != nil {
				t.Fatal(err)
			}
			if ev := last(s); ev.Inverse || ev.Kind != activity.Retriable || p.Inst.Status(2) != process.Committed {
				t.Fatalf("event %v, status %v", ev, p.Inst.Status(2))
			}
		}},
		{"terminate", single("P", "a", activity.Compensatable), []int{1}, func(t *testing.T, s *policy.State, p *policy.Proc) {
			s.Terminate(p, true, 7)
			if ev := last(s); p.Phase != policy.Done || ev.Typ != schedule.Terminate || !ev.Committed || !p.Inst.Terminated() {
				t.Fatalf("phase %v, event %v", p.Phase, ev)
			}
		}},
	}
	for _, tc := range tt {
		t.Run(tc.name, func(t *testing.T) {
			s := policy.New(table(), policy.Config{Mode: policy.PRED})
			p := proc(t, tc.def, 0, tc.done...)
			s.Admit(p)
			if procs := s.Procs(); len(procs) != 1 || procs[0] != p {
				t.Fatal("Admit did not register the table entry")
			}
			for i, l := range tc.done {
				executed(s, p, l, int64(i+1))
			}
			tc.apply(t, s, p)
		})
	}
}
