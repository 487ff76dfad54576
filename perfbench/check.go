package main

import (
	"transproc/internal/schedule"
	"transproc/internal/wal"
)

// Output checks. They run outside the timed window, on every unit.
//
// The schedule check asserts Theorem 1's conclusions, serializability
// and process-recoverability, in the strict form the repository's own
// tests use. A schedule whose serialization graph over all events,
// compensations included, has a cycle must still be serializable once
// its effect-free compensation pairs cancel (EffectiveSerializable, the
// committed projection of Theorem 1's proof); that costs a reduction,
// so it runs only when Serializable() fails. A Proc-REC violation is
// accepted only when it does not materialize
// (schedule.ViolationMaterialized). The full PRED() check is not run:
// on one 96-process schedule it takes 10-12 s, longer than a whole
// measuring window.

// checkLog checks that every admitted incarnation in the log reached a
// terminal record, that each process (origin) committed at most once,
// and that every submitted origin appears. It returns the number of
// submitted origins that settled.
func checkLog(rep *report, label string, recs []wal.Record, origins []string) int {
	images, err := wal.Analyze(wal.Expand(recs).Records)
	if err != nil {
		rep.problem("%s: analyze log: %v", label, err)
		return 0
	}
	type fate struct{ open, commits, incarnations int }
	fates := map[string]*fate{}
	for id, img := range images {
		o := origin(id)
		f := fates[o]
		if f == nil {
			f = &fate{}
			fates[o] = f
		}
		f.incarnations++
		if !img.Terminated {
			f.open++
		}
		if img.Terminated && img.TerminatedCommitted {
			f.commits++
		}
	}
	settled := 0
	for _, o := range origins {
		f := fates[o]
		switch {
		case f == nil:
			rep.problem("%s: process %s never reached the log", label, o)
		case f.open > 0:
			rep.problem("%s: process %s has %d incarnation(s) without a terminal record", label, o, f.open)
		case f.commits > 1:
			rep.problem("%s: process %s committed %d times", label, o, f.commits)
		default:
			settled++
		}
	}
	return settled
}

// checkSchedule asserts the strict form of Theorem 1's conclusions.
func checkSchedule(rep *report, label string, s *schedule.Schedule) {
	if !s.Serializable() && !s.EffectiveSerializable() {
		rep.problem("%s: observed schedule is not serializable, compensation pairs cancelled", label)
	}
	if ok, vs := s.ProcessRecoverable(); !ok {
		for _, v := range vs {
			if s.ViolationMaterialized(v) {
				rep.problem("%s: materialized process-recoverability violation: %s", label, v.Detail)
				return
			}
		}
	}
}
