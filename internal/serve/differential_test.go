package serve

import (
	"fmt"
	"net/http"
	"testing"

	"transproc/internal/fault"
)

// TestRestartResumeDifferential is the restart-resume differential: a
// server killed at a seeded crash point and restarted must settle every
// admitted submission to the same per-origin outcome as an identical
// server that was never interrupted. Transient noise is zeroed so
// outcomes are a pure function of the world (its deterministic
// permanent-failure rules), which makes outcome equality a hard
// invariant rather than a statistical one. The crash run's accumulated
// history must also pass the settled-state invariants (PRED,
// exactly-once effects) — both properties hold under -race.
func TestRestartResumeDifferential(t *testing.T) {
	// Crash classes only (admit-crash, ack-crash, wal-budget,
	// engine-point, group-fsync, double-crash): overload sheds a
	// timing-dependent subset, drains park rather than kill, and
	// fed-hub-bounce kills a different process than the one being
	// differenced, so none of those compare 1:1 against an
	// uninterrupted run.
	seeds := []int64{0, 1, 3, 4, 5, 8, 10, 13, 14, 15, 18, 21}
	if testing.Short() {
		seeds = seeds[:6]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferential(t, seed)
		})
	}
}

func runDifferential(t *testing.T, seed int64) {
	sc := ScenarioFor(seed)
	prof := serveProfile(sc)
	prof.TransientFailureProb = 0

	// Baseline: the same world, never interrupted.
	fedA, reqs, err := serveWorldFrom(sc, prof)
	if err != nil {
		t.Fatal(err)
	}
	dirA := t.TempDir()
	srvA, err := Open(fedA, scenarioConfig(sc, dirA, fault.Plan{}, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	addrA, err := srvA.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range submitAll("http://"+addrA, reqs, false) {
		if c != http.StatusAccepted {
			t.Fatalf("baseline submit %d: %d", i, c)
		}
	}
	if !srvA.WaitIdle(serveWait) {
		t.Fatal("baseline never idle")
	}
	if pt, crashed := srvA.Crashed(); crashed {
		t.Fatalf("baseline crashed at %v", pt)
	}
	want := make(map[string]bool)
	for _, st := range srvA.Statuses("", "") {
		if !st.Final {
			t.Fatalf("baseline %s not final: %+v", st.ID, st)
		}
		want[st.ID] = st.Committed
	}
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash run: identical world, killed at the scenario's seeded crash
	// point, restarted until settled.
	fedB, reqsB, err := serveWorldFrom(sc, prof)
	if err != nil {
		t.Fatal(err)
	}
	dirB := t.TempDir()
	srv, err := Open(fedB, scenarioConfig(sc, dirB, sc.Plan, sc.Plan.CrashAfterWALRecords, false))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	submitAll("http://"+addr, reqsB, false)
	srv.WaitIdle(serveWait)
	if _, crashed := srv.Crashed(); !crashed {
		// The seeded budget outlived the run; the differential still
		// holds (restart over a cleanly drained directory).
		if _, err := srv.Drain(newTimeoutCtx(serveWait)); err != nil {
			t.Fatalf("clean drain: %v", err)
		}
	}
	srv.Close()
	flushAbandoned(srv)

	var crashLSNs []int64
	if _, _, lsn, err := preCrashBoundary(dirB); err == nil {
		crashLSNs = append(crashLSNs, lsn)
	}
	var final *Server
	for attempt := 0; attempt < 4; attempt++ {
		rs, err := Open(fedB, scenarioConfig(sc, dirB, fault.Plan{}, 0, false))
		if err != nil {
			t.Fatalf("restart %d: %v", attempt, err)
		}
		if !rs.WaitIdle(serveWait) {
			rs.Close()
			t.Fatalf("restart %d never settled", attempt)
		}
		if _, crashed := rs.Crashed(); crashed {
			rs.Close()
			flushAbandoned(rs)
			if _, _, lsn, err := preCrashBoundary(dirB); err == nil {
				crashLSNs = append(crashLSNs, lsn)
			}
			continue
		}
		final = rs
		break
	}
	if final == nil {
		t.Fatal("crash run never settled within the restart budget")
	}
	defer final.Close()

	// Per-origin outcome equality over every submission the crash run
	// admitted (a kill mid-request may legitimately lose later ones).
	sts := final.Statuses("", "")
	if len(sts) == 0 {
		t.Fatal("crash run admitted nothing")
	}
	for _, st := range sts {
		if !st.Final {
			t.Fatalf("crash run %s not final: %+v", st.ID, st)
		}
		wantCommitted, ok := want[st.ID]
		if !ok {
			t.Fatalf("crash run admitted %s, baseline did not", st.ID)
		}
		if st.Committed != wantCommitted {
			t.Errorf("seed %d: origin %s: crash run committed=%v, uninterrupted run committed=%v",
				seed, st.ID, st.Committed, wantCommitted)
		}
	}
	// The crash run's accumulated history passes the settled-state
	// invariants: PRED and exactly-once effects across the crash.
	if err := checkSettled(final, crashLSNs); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}
