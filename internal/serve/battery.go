// The serve torture battery: seeded end-to-end crash scenarios against
// a real server over real HTTP. Each scenario generates a deterministic
// workload, submits it over the wire, kills the server at a seeded
// crash point (mid-request, mid-ack, mid-drain, mid-batch, inside the
// engines, inside a group-commit fsync, or under overload), restarts it
// over the same data directory, and judges the restart with
// fault.CheckRecovered over the server's WAL — then releases the resume
// set and asserts that every admitted submission settles to a terminal
// state with exactly-once effects and a prefix-reducible accumulated
// history. Every failure message embeds the reproducing seed.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"transproc/internal/activity"
	"transproc/internal/fault"
	"transproc/internal/metrics"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/spec"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// Scenario is one fully determined serve-torture case. ScenarioFor is a
// pure function of the seed, so a failing seed reproduces the exact
// same scenario anywhere.
type Scenario struct {
	Seed  int64
	Class string
	// Plan arms the first server incarnation's crash (the injected
	// kill -9); the WAL-budget field is applied via Config.WrapLog.
	Plan fault.Plan
	// RerunBudget arms a second WAL budget on the restarted server, so
	// the resumed work crashes again (double restart).
	RerunBudget int
	// Overload shrinks the admission window and submits concurrently,
	// so the scenario sheds load before it crashes.
	Overload bool
	// DrainCrash calls Drain mid-flight and crashes inside it.
	DrainCrash bool
	// Park drains cleanly with a tiny deadline mid-flight, parking
	// queued submissions for the restart to resume.
	Park bool
	// RetryIndex, when >= 0, re-submits that submission's idempotency
	// key after the restart and requires a deduplicated answer.
	RetryIndex int
	// CheckpointEvery / CompactOnCheckpoint pass through to the engine.
	CheckpointEvery     int
	CompactOnCheckpoint bool
	// GroupCommit batches server-WAL appends.
	GroupCommit wal.GroupCommit
	// Procs and Tenants size the workload.
	Procs   int
	Tenants int
	// Tick slows virtual service time so drains and overloads catch
	// work in flight.
	Tick time.Duration
	// FedNodes > 0 routes batches through a federation cluster;
	// FedHubPoint/FedHubCount arm a hub kill -9 inside the first batch
	// (the server must ride through the reopen), and the lease knobs
	// exercise the membership plumbing.
	FedNodes     int
	FedHubPoint  string
	FedHubCount  int
	FedLeaseTTL  time.Duration
	FedHeartbeat time.Duration
}

// serveClasses is the scenario-class cycle.
const serveClasses = 10

// ScenarioFor derives the deterministic scenario of a seed. Nine
// classes cycle by seed: a crash after the journal append but before
// the enqueue (mid-request), after the enqueue but before the 202
// (mid-ack, followed by an idempotent retry after restart), inside the
// drain sequence, on a WAL record budget under load, at the engines'
// own force-log and 2PC points, between a group-commit batch write and
// its fsync, under overload with live shedding, a clean mid-flight
// drain that parks work for the restart, and a double crash where the
// restarted server dies again while re-running the resume set.
func ScenarioFor(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed*2862933555777941757 + 3037000493))
	sc := Scenario{
		Seed: seed, RetryIndex: -1,
		Procs: 10, Tenants: 1 + int(seed%3),
	}
	if seed%2 == 1 {
		sc.GroupCommit = wal.GroupCommit{MaxBatch: 2 + rng.Intn(8)}
	}
	if seed%5 == 0 {
		sc.CheckpointEvery = 6 + rng.Intn(8)
		sc.CompactOnCheckpoint = seed%10 == 0
	}
	budget := 10 + rng.Intn(110)
	sc.Plan.Seed = seed
	switch seed % serveClasses {
	case 0:
		sc.Class = "admit-crash"
		sc.Plan.CrashAtPoint = fault.PointServeAdmit
		sc.Plan.CrashAtCount = 1 + rng.Intn(sc.Procs)
	case 1:
		sc.Class = "ack-crash"
		sc.Plan.CrashAtPoint = fault.PointServeAck
		sc.Plan.CrashAtCount = 1 + rng.Intn(sc.Procs)
		sc.RetryIndex = sc.Plan.CrashAtCount - 1
	case 2:
		sc.Class = "drain-crash"
		sc.DrainCrash = true
		sc.Plan.CrashAtPoint = fault.PointServeDrain
		sc.Plan.CrashAtCount = 1
		sc.Tick = 200 * time.Microsecond
	case 3:
		sc.Class = "wal-budget"
		sc.Plan.CrashAfterWALRecords = budget
	case 4:
		sc.Class = "engine-point"
		pts := []string{fault.PointBeforeForceLog, fault.PointAfterForceLog,
			fault.PointAfterDecision, fault.PointMidResolve}
		sc.Plan.CrashAtPoint = pts[rng.Intn(len(pts))]
		if sc.Plan.CrashAtPoint == fault.PointAfterDecision || sc.Plan.CrashAtPoint == fault.PointMidResolve {
			sc.Plan.CrashAtCount = 1 + rng.Intn(3)
		} else {
			sc.Plan.CrashAtCount = 1 + rng.Intn(25)
		}
	case 5:
		sc.Class = "group-fsync"
		sc.GroupCommit = wal.GroupCommit{MaxBatch: 2 + rng.Intn(8)}
		sc.Plan.CrashAtPoint = wal.PointGroupFsync
		sc.Plan.CrashAtCount = 1 + rng.Intn(10)
	case 6:
		sc.Class = "overload"
		sc.Overload = true
		sc.Tick = 300 * time.Microsecond
		sc.Procs = 16
		sc.Plan.CrashAfterWALRecords = 15 + rng.Intn(60)
	case 7:
		sc.Class = "drain-park"
		sc.Park = true
		sc.Tick = 300 * time.Microsecond
	case 8:
		sc.Class = "double-crash"
		sc.Plan.CrashAfterWALRecords = budget
		sc.RerunBudget = 5 + rng.Intn(40)
	case 9:
		// The coordination hub of a federated batch dies kill -9 style
		// mid-batch; the serve layer must ride through the reopen (its
		// readiness probe degrading in the window) and still settle every
		// acked submission exactly once. The generous lease keeps healthy
		// heartbeating nodes from spurious expiry — lease-expiry torture
		// proper lives in the federation hub battery.
		sc.Class = "fed-hub-bounce"
		sc.FedNodes = 2 + rng.Intn(2)
		// Dispatch kills are guaranteed to fire (any admitted work hits
		// them) so they carry double weight; the 2PC-window kills ride
		// along when the batch exercises those paths.
		pts := []string{fault.PointHubDispatch, fault.PointHubDispatch,
			fault.PointHubDecision, fault.PointHubResolve}
		sc.FedHubPoint = pts[rng.Intn(len(pts))]
		if sc.FedHubPoint == fault.PointHubDispatch {
			sc.FedHubCount = 1 + rng.Intn(4)
		} else {
			sc.FedHubCount = 1
		}
		sc.FedLeaseTTL = 200 * time.Millisecond
		sc.FedHeartbeat = 10 * time.Millisecond
		sc.Procs = 12
		sc.CheckpointEvery = 0 // LSN epoch boundaries must survive verbatim
		sc.CompactOnCheckpoint = false
	}
	return sc
}

// serveProfile is the workload a scenario runs: conflict-heavy, no
// probabilistic permanent failures (those are chosen deterministically
// below), mild transient noise.
func serveProfile(sc Scenario) workload.Profile {
	p := workload.DefaultProfile(sc.Seed)
	p.Processes = sc.Procs
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.10
	return p
}

// serveWorld generates a scenario's world: the federation, the
// submissions in wire form (tenant + declarative spec, in submission
// order) and the deterministic permanent-failure rules keyed by origin
// ("tenant/proc"), applied to the federation.
func serveWorld(sc Scenario) (*subsystem.Federation, []SubmitRequest, error) {
	return serveWorldFrom(sc, serveProfile(sc))
}

// serveWorldFrom is serveWorld over an explicit profile (the
// differential test zeroes transient noise so outcomes are a pure
// function of the world).
func serveWorldFrom(sc Scenario, p workload.Profile) (*subsystem.Federation, []SubmitRequest, error) {
	w, err := workload.Generate(p)
	if err != nil {
		return nil, nil, fmt.Errorf("seed %d: generating workload: %w", sc.Seed, err)
	}
	rng := rand.New(rand.NewSource(sc.Seed*7919 + 13))
	var reqs []SubmitRequest
	for i, j := range w.Jobs {
		tenant := fmt.Sprintf("t%d", i%sc.Tenants)
		ps := spec.FromProcess(j.Proc)
		reqs = append(reqs, SubmitRequest{
			Tenant: tenant, Key: fmt.Sprintf("key-%s", ps.ID), Proc: ps,
		})
		origin := tenant + "/" + ps.ID
		// Deterministic permanent failures for roughly a third of the
		// processes, forward compensatable/pivot services only (the
		// differential-battery idiom).
		if rng.Float64() >= 0.35 {
			continue
		}
		var candidates []string
		for _, svc := range scheduler.Footprint(j.Proc) {
			spec, ok := w.Fed.Spec(svc)
			if ok && (spec.Kind == activity.Compensatable || spec.Kind == activity.Pivot) {
				candidates = append(candidates, svc)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		sort.Strings(candidates)
		svc := candidates[rng.Intn(len(candidates))]
		sub, ok := w.Fed.Owner(svc)
		if !ok {
			return nil, nil, fmt.Errorf("seed %d: no owner for %s", sc.Seed, svc)
		}
		sub.FailService(origin, svc)
	}
	return w.Fed, reqs, nil
}

// scenarioConfig builds the server config of one incarnation.
func scenarioConfig(sc Scenario, dir string, plan fault.Plan, walBudget int, hold bool) Config {
	cfg := Config{
		Dir: dir, NoSync: true,
		Tick:            sc.Tick,
		CheckpointEvery: sc.CheckpointEvery, CompactOnCheckpoint: sc.CompactOnCheckpoint,
		GroupCommit: sc.GroupCommit,
		HoldResume:  hold,
		BatchWait:   time.Millisecond,
	}
	if sc.Overload {
		cfg.QueueDepth = 2
		cfg.BatchMax = 2
	}
	if sc.Park {
		cfg.BatchMax = 2
		cfg.DrainTimeout = 25 * time.Millisecond
	}
	if sc.FedNodes > 0 {
		cfg.FedNodes = sc.FedNodes
		cfg.FedLeaseTTL = sc.FedLeaseTTL
		cfg.FedHeartbeat = sc.FedHeartbeat
		// One batch holds the whole workload, so the armed hub kill is
		// guaranteed to fire inside it.
		cfg.BatchMax = sc.Procs
		cfg.BatchWait = 30 * time.Millisecond
		if !hold {
			// Only the first incarnation arms the kill; a restart resumes
			// over a healthy hub.
			cfg.FedHubKillPoint = sc.FedHubPoint
			cfg.FedHubKillCount = sc.FedHubCount
		}
	}
	if plan.CrashAtPoint != "" {
		inj := fault.NewInjector(plan)
		cfg.Inject = inj.Point
	}
	if walBudget > 0 {
		cfg.WrapLog = func(l wal.Log) wal.Log { return fault.WrapWAL(l, walBudget) }
	}
	return cfg
}

// submitAll drives the submissions over HTTP. Sequential normally;
// overload scenarios submit concurrently against a tiny admission
// window. Returns per-request HTTP status (0 = connection died).
func submitAll(base string, reqs []SubmitRequest, concurrent bool) []int {
	codes := make([]int, len(reqs))
	post := func(i int) {
		data, err := json.Marshal(reqs[i])
		if err != nil {
			codes[i] = -1
			return
		}
		resp, err := http.Post(base+"/v1/processes", "application/json", bytes.NewReader(data))
		if err != nil {
			codes[i] = 0 // connection died mid-request (the crash)
			return
		}
		resp.Body.Close()
		codes[i] = resp.StatusCode
	}
	if !concurrent {
		for i := range reqs {
			post(i)
		}
		return codes
	}
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			post(i)
		}(i)
	}
	wg.Wait()
	return codes
}

// flushAbandoned pushes a crashed server's buffered WAL tail to its
// file. The battery runs with NoSync for speed, so an abandoned log can
// hold records only in the user-space buffer — but the surviving
// in-process federation models the paper's locally-recovering
// subsystems, and under the force-log discipline (append before
// effect) any effect the federation holds must have its record on
// disk; judging against a shorter log would be judging an impossible
// world. Production servers run with per-append fsync, where the
// buffer is always empty.
func flushAbandoned(s *Server) {
	if _, crashed := s.Crashed(); crashed {
		s.Log().Records()
	}
}

// preCrashBoundary reads the abandoned (or cleanly closed) server
// WAL from disk and returns the CheckRecovered boundary in expanded
// and full coordinates, plus the boundary LSN (the highest LSN in the
// log — stable across later checkpoints and compaction, unlike the
// positional coordinates).
func preCrashBoundary(dir string) (pre, preFull int, lsn int64, err error) {
	fl, err := wal.OpenFile(filepath.Join(dir, "wal.log"), false)
	if err != nil {
		return 0, 0, 0, err
	}
	recs, err := fl.Records()
	fl.Close()
	if err != nil {
		return 0, 0, 0, err
	}
	pre = len(wal.Expand(recs).Records)
	for _, r := range recs {
		if r.Type != wal.RecCheckpoint {
			preFull++
		}
		if r.LSN > lsn {
			lsn = r.LSN
		}
	}
	return pre, preFull, lsn, nil
}

// checkSettled asserts the battery's end-state invariants over a fully
// idle server: every journaled submission is terminal and sealed, the
// accumulated schedule (all incarnations folded by origin) is
// prefix-reducible, and subsystem state equals exactly the committed
// work in the log — nothing lost, nothing doubled across any number of
// crashes and restarts.
func checkSettled(s *Server, crashLSNs []int64) error {
	sts := s.Statuses("", "")
	for _, st := range sts {
		if !st.Final || (st.State != stateCommitted && st.State != stateAborted) {
			return fmt.Errorf("submission %s not terminal: %+v", st.ID, st)
		}
	}
	raw, err := s.Log().Records()
	if err != nil {
		return fmt.Errorf("reading final log: %w", err)
	}
	recs := wal.Expand(raw).Records
	table, err := s.Federation().ConflictTable()
	if err != nil {
		return err
	}
	// The accumulated log spans every crash epoch of the scenario: the
	// LSN boundaries tell the reconstruction which incarnations each
	// crash interrupted (their post-boundary records are recovery's and
	// synthesize the crash abort) while the re-run incarnations past
	// each boundary are ordinary forward work.
	sched, err := fault.ScheduleFromWALEpochs(table, s.Defs(), recs, crashLSNs)
	if err != nil {
		return fmt.Errorf("reconstructing final schedule: %w", err)
	}
	ok, at, _, err := sched.PRED()
	if err != nil {
		return fmt.Errorf("final PRED check: %w", err)
	}
	if !ok {
		return fmt.Errorf("final schedule not prefix-reducible (prefix %d)", at)
	}
	// Exactly-once accounting over the whole history (checkpoint
	// summaries included).
	fed := s.Federation()
	want := make(map[string]int64)
	if exp := wal.Expand(raw); exp.Checkpoint != nil {
		for svc, n := range exp.Checkpoint.AppliedSvc {
			spec, ok := fed.Spec(svc)
			if !ok {
				return fmt.Errorf("checkpoint summarizes unknown service %q", svc)
			}
			delta := n
			if spec.Kind == activity.Compensation {
				delta = -n
			}
			sub, _ := fed.Owner(svc)
			for _, item := range spec.WriteSet {
				want[sub.Name()+"/"+item] += delta
			}
		}
	}
	for _, ev := range sched.Events() {
		if ev.Type != schedule.Invoke {
			continue
		}
		spec, ok := fed.Spec(ev.Service)
		if !ok {
			return fmt.Errorf("final schedule uses unknown service %q", ev.Service)
		}
		delta := int64(1)
		if spec.Kind == activity.Compensation {
			delta = -1
		}
		sub, _ := fed.Owner(ev.Service)
		for _, item := range spec.WriteSet {
			want[sub.Name()+"/"+item] += delta
		}
	}
	got := fed.Snapshot()
	for item, v := range got {
		if v != want[item] {
			return fmt.Errorf("exactly-once: item %s has %d, committed work accounts for %d", item, v, want[item])
		}
	}
	for item, v := range want {
		if v != 0 && got[item] != v {
			return fmt.Errorf("exactly-once: item %s wants %d, subsystem has %d", item, v, got[item])
		}
	}
	return nil
}

// restartAndJudge opens a fresh server over the crashed incarnation's
// directory with the resume set held, runs CheckRecovered at the
// post-recovery point, then releases the resume set. walBudget > 0 arms
// the next crash.
func restartAndJudge(sc Scenario, fed *subsystem.Federation, dir string, pre, preFull, walBudget int, priorLSNs []int64) (*Server, error) {
	srv, err := Open(fed, scenarioConfig(sc, dir, fault.Plan{}, walBudget, true))
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	if err := fault.CheckRecovered(fault.CheckInput{
		Fed: fed, Log: srv.Log(), Defs: srv.Defs(),
		PreCrashRecords: pre, PreCrashFull: preFull,
		Compacted:      sc.CompactOnCheckpoint,
		PriorCrashLSNs: priorLSNs,
	}); err != nil {
		srv.Close()
		return nil, err
	}
	srv.Resume()
	return srv, nil
}

const serveWait = 30 * time.Second

// RunScenario executes one scenario end to end. dir must be an empty
// directory the scenario may fill (the server's data dir). The returned
// error describes the violated invariant; nil means the scenario
// passed.
func RunScenario(sc Scenario, dir string) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("seed %d (%s): %s", sc.Seed, sc.Class, fmt.Sprintf(format, args...))
	}
	fed, reqs, err := serveWorld(sc)
	if err != nil {
		return err
	}
	srv, err := Open(fed, scenarioConfig(sc, dir, sc.Plan, sc.Plan.CrashAfterWALRecords, false))
	if err != nil {
		return fail("open: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return fail("start: %v", err)
	}
	base := "http://" + addr

	codes := submitAll(base, reqs, sc.Overload)
	accepted, shed := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			shed++
		}
	}

	switch {
	case sc.DrainCrash:
		// Drain mid-flight; the injected crash fires inside the drain
		// sequence and the call must report it.
		if _, err := srv.Drain(newTimeoutCtx(serveWait)); err == nil {
			return fail("drain crash scenario: Drain returned no error")
		}
		if _, crashed := srv.Crashed(); !crashed {
			return fail("drain crash scenario: server not crashed after drain")
		}
	case sc.Park:
		// Clean mid-flight drain with a tiny deadline: whatever misses
		// it parks in the journal.
		rep, err := srv.Drain(newTimeoutCtx(serveWait))
		if err != nil {
			return fail("park drain: %v", err)
		}
		if rep.Finished+rep.Parked != accepted {
			return fail("park drain lost work: finished %d + parked %d != accepted %d",
				rep.Finished, rep.Parked, accepted)
		}
	default:
		// Crash scenarios: wait until the armed crash fires or the work
		// finishes (a budget can legitimately outlive the run).
		srv.WaitIdle(serveWait)
		if _, crashed := srv.Crashed(); !crashed {
			if _, err := srv.Drain(newTimeoutCtx(serveWait)); err != nil {
				return fail("clean drain: %v", err)
			}
		}
	}
	srv.Close()
	flushAbandoned(srv)

	// Hub-bounce scenarios must actually have bounced: the armed kill
	// fired, the cluster reopened the hub, and the readiness probe is
	// back out of its degraded window.
	reopenLSNs := srv.ReopenBoundaries()
	if sc.FedNodes > 0 && sc.FedHubPoint != "" {
		// hub:dispatch fires on any admitted work, so its kill MUST have
		// been ridden out; decision/resolve points fire only when the
		// batch exercises cross-node 2PC windows (soft, as in the
		// federation hub battery).
		if got := srv.Metrics().Counter(metrics.FedHubReopens); got == 0 && sc.FedHubPoint == fault.PointHubDispatch {
			return fail("armed hub kill at %q never fired (no reopen)", sc.FedHubPoint)
		}
		if srv.hubDegraded.Load() {
			return fail("readiness still degraded after the batch settled")
		}
	}

	// The crash boundary, read from the abandoned WAL. Mid-batch hub
	// reopens are earlier crash epochs of the same history.
	pre, preFull, lsn, err := preCrashBoundary(dir)
	if err != nil {
		return fail("pre-crash boundary: %v", err)
	}
	crashLSNs := append(append([]int64(nil), reopenLSNs...), lsn)

	// Restart over the same directory; judge recovery, then release the
	// resume set.
	srv2, err := restartAndJudge(sc, fed, dir, pre, preFull, sc.RerunBudget, reopenLSNs)
	if err != nil {
		return fail("%v", err)
	}

	// Idempotent retry across the crash: the client whose ack was lost
	// re-submits with the same key and must get the original, not a
	// duplicate.
	if sc.RetryIndex >= 0 && sc.RetryIndex < len(reqs) && codes[sc.RetryIndex] != http.StatusTooManyRequests {
		addr2, err := srv2.Start("127.0.0.1:0")
		if err != nil {
			srv2.Close()
			return fail("restart http: %v", err)
		}
		data, _ := json.Marshal(reqs[sc.RetryIndex])
		resp, err := http.Post("http://"+addr2+"/v1/processes", "application/json", bytes.NewReader(data))
		if err != nil {
			srv2.Close()
			return fail("retry after restart: %v", err)
		}
		var sr SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil {
			srv2.Close()
			return fail("retry decode: %v", err)
		}
		if resp.StatusCode != http.StatusOK || !sr.Deduped {
			srv2.Close()
			return fail("retry after restart not deduplicated: code %d, %+v", resp.StatusCode, sr)
		}
	}

	srv2.WaitIdle(serveWait)
	final := srv2
	if _, crashed := srv2.Crashed(); crashed {
		// Double crash: the resumed work died too. One more restart must
		// settle everything.
		srv2.Close()
		flushAbandoned(srv2)
		pre2, preFull2, lsn2, err := preCrashBoundary(dir)
		if err != nil {
			return fail("second boundary: %v", err)
		}
		crashLSNs = append(crashLSNs, lsn2)
		srv3, err := restartAndJudge(sc, fed, dir, pre2, preFull2, 0,
			append(append([]int64(nil), reopenLSNs...), lsn))
		if err != nil {
			return fail("second restart: %v", err)
		}
		if !srv3.WaitIdle(serveWait) {
			srv3.Close()
			return fail("third incarnation never settled")
		}
		final = srv3
	} else if sc.RerunBudget > 0 {
		// The second budget never fired — the resume set was smaller
		// than the budget. Fine: the invariants below still apply.
		if !srv2.WaitIdle(serveWait) {
			srv2.Close()
			return fail("second incarnation never settled")
		}
	}

	if _, crashed := final.Crashed(); crashed {
		final.Close()
		return fail("final incarnation crashed unexpectedly at %v", func() string { p, _ := final.Crashed(); return p }())
	}
	if !final.WaitIdle(serveWait) {
		final.Close()
		return fail("final incarnation never went idle")
	}
	// Every admitted submission must be terminal; sealed exactly once;
	// effects exactly once; PRED over the whole accumulated history.
	if err := checkSettled(final, crashLSNs); err != nil {
		final.Close()
		return fail("%v", err)
	}
	// Shed submissions were never admitted: the restarted server must
	// not know them.
	for i, c := range codes {
		if c != http.StatusTooManyRequests {
			continue
		}
		origin := reqs[i].Tenant + "/" + reqs[i].Proc.ID
		if _, ok := final.StatusOf(origin); ok {
			// A 429 whose journal append nonetheless happened would be a
			// double-admission bug — the shed decision precedes the
			// journal write.
			final.Close()
			return fail("shed submission %s known after restart", origin)
		}
	}
	if err := final.Close(); err != nil {
		return fail("final close: %v", err)
	}
	return nil
}

// newTimeoutCtx is context.WithTimeout without the cancel-leak
// boilerplate at call sites (the contexts are short-lived).
func newTimeoutCtx(d time.Duration) timeoutCtx { return timeoutCtx{time.Now().Add(d)} }

// timeoutCtx is a minimal deadline-only context.
type timeoutCtx struct{ deadline time.Time }

func (t timeoutCtx) Deadline() (time.Time, bool) { return t.deadline, true }
func (timeoutCtx) Done() <-chan struct{}         { return nil }
func (timeoutCtx) Err() error                    { return nil }
func (timeoutCtx) Value(any) any                 { return nil }

// Summary aggregates a serve-torture batch.
type Summary struct {
	Scenarios int            `json:"scenarios"`
	Failures  []string       `json:"failures,omitempty"`
	ByClass   map[string]int `json:"byClass"`
}

// RunBattery runs the scenarios of seeds [first, first+n). The progress
// hook (nil ok) fires before each seed — the CLI uses it to print the
// in-flight reproducing seed when interrupted.
func RunBattery(first, n int64, dirFor func(seed int64) string, progress func(seed int64, class string)) Summary {
	sum := Summary{ByClass: make(map[string]int)}
	for seed := first; seed < first+n; seed++ {
		sc := ScenarioFor(seed)
		if progress != nil {
			progress(seed, sc.Class)
		}
		sum.Scenarios++
		sum.ByClass[sc.Class]++
		if err := RunScenario(sc, dirFor(seed)); err != nil {
			sum.Failures = append(sum.Failures, err.Error())
		}
	}
	return sum
}
