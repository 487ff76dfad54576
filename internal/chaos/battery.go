package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"transproc/internal/fault"
	"transproc/internal/metrics"
	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/runtime"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// Scenario is one fully determined chaos case: a seeded workload (or a
// directed paper fixture), a transport-fault plan, the retry/breaker
// configuration and the engine to run it under. ScenarioFor(seed) is a
// pure function, so a failing seed reproduces the exact same scenario
// anywhere.
type Scenario struct {
	Seed  int64
	Class string
	Mode  scheduler.Mode
	// Engine selects the execution engine: "engine" (sequential) or
	// "runtime" (concurrent).
	Engine  string
	Plan    Plan
	Policy  RetryPolicy
	Breaker BreakerConfig
	// CrashAfterWAL, when positive, composes the chaos layer with the
	// crash injector: the run dies after that many WAL appends and must
	// recover (fault.CheckRecovered judges the result).
	CrashAfterWAL int
	// GroupCommit, when enabled, wraps the scenario's log in the
	// batching appender so chaos (and mid-chaos crashes) also run
	// through coalesced flushes.
	GroupCommit wal.GroupCommit
}

// ScenarioFor derives the deterministic scenario of a seed. Eight
// classes cycle by seed: transient storms, timeout ambiguity, duplicate
// deliveries, latency spikes, a sustained outage steering the CIM
// construction process onto its ◁ alternative, a sustained outage
// forcing the CIM production process into backward recovery, a mixed
// plan under the concurrent runtime, and chaos composed with a
// mid-chaos crash plus recovery.
func ScenarioFor(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))
	sc := Scenario{Seed: seed, Engine: "engine", Mode: scheduler.PRED}
	if seed%3 == 0 {
		sc.Mode = scheduler.PREDCascade
	}
	if seed%2 == 1 {
		sc.GroupCommit = wal.GroupCommit{MaxBatch: 2 + rng.Intn(15)}
	}
	sc.Plan.Seed = seed
	switch seed % 8 {
	case 0:
		sc.Class = "transient-storm"
		sc.Plan.PTransient = 0.15 + 0.25*rng.Float64()
		sc.Plan.PSlow = 0.10
	case 1:
		sc.Class = "timeout-ambiguity"
		sc.Plan.PTimeout = 0.20 + 0.20*rng.Float64()
		sc.Plan.PTransient = 0.05
	case 2:
		sc.Class = "duplicate-delivery"
		sc.Plan.PDuplicate = 0.25 + 0.15*rng.Float64()
		sc.Plan.PTransient = 0.05
	case 3:
		sc.Class = "latency-spike"
		sc.Plan.PSlow = 0.35 + 0.25*rng.Float64()
		sc.Plan.SlowTicks = int64(8 + rng.Intn(40))
		sc.Plan.PTransient = 0.05
	case 4:
		sc.Class = "outage-failover"
		// The PDM never answers: enterBOM (compensatable) fails at the
		// transport, and the construction process must take its ◁
		// alternative (document the CAD drawing) instead of stalling.
		sc.Plan.Outages = []Outage{{Subsystem: "pdm", From: 0, To: 1 << 40}}
		sc.Breaker = BreakerConfig{FailThreshold: 2, Cooldown: 16}
	case 5:
		sc.Class = "outage-backward"
		// The production floor never answers: produce (pivot, no
		// alternative) fails and the production process falls back to
		// backward recovery, compensating everything before the pivot.
		sc.Plan.Outages = []Outage{{Subsystem: "floor", From: 0, To: 1 << 40}}
		sc.Breaker = BreakerConfig{FailThreshold: 2, Cooldown: 16}
	case 6:
		sc.Class = "runtime-mixed"
		sc.Engine = "runtime"
		sc.Plan.PTransient = 0.10 + 0.10*rng.Float64()
		sc.Plan.PTimeout = 0.08
		sc.Plan.PDuplicate = 0.08
		sc.Plan.PSlow = 0.05
	case 7:
		sc.Class = "chaos-crash"
		sc.Plan.PTransient = 0.12
		sc.Plan.PTimeout = 0.08
		sc.Plan.PDuplicate = 0.08
		sc.CrashAfterWAL = 5 + rng.Intn(120)
	}
	if sc.Engine == "runtime" {
		sc.Mode = scheduler.PRED // cascading aborts run on the sequential engine only
	}
	return sc
}

// chaosProfile is the generated workload the generic classes run.
func chaosProfile(seed int64) workload.Profile {
	p := workload.DefaultProfile(seed)
	p.Processes = 10
	p.ConflictProb = 0.35
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.05
	return p
}

// fixtures builds the scenario's federation and jobs.
func fixtures(sc Scenario) (*subsystem.Federation, []scheduler.Job, error) {
	switch sc.Class {
	case "outage-failover":
		fed := paper.CIMFederation(sc.Seed)
		var jobs []scheduler.Job
		for i := 1; i <= 8; i++ {
			jobs = append(jobs, scheduler.Job{
				Proc: paper.CIMConstruction(process.ID(fmt.Sprintf("C%d", i))),
			})
		}
		return fed, jobs, nil
	case "outage-backward":
		fed := paper.CIMFederation(sc.Seed)
		var jobs []scheduler.Job
		for i := 1; i <= 4; i++ {
			jobs = append(jobs, scheduler.Job{
				Proc: paper.CIMProduction(process.ID(fmt.Sprintf("M%d", i))),
			})
		}
		return fed, jobs, nil
	default:
		w, err := workload.Generate(chaosProfile(sc.Seed))
		if err != nil {
			return nil, nil, err
		}
		return w.Fed, w.Jobs, nil
	}
}

// RunScenario executes one scenario end to end and checks every
// resilience invariant; the returned error describes the violated one
// and embeds the reproducing seed. nil means the scenario passed.
func RunScenario(sc Scenario) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("seed %d (%s): %s", sc.Seed, sc.Class, fmt.Sprintf(format, args...))
	}
	fed, jobs, err := fixtures(sc)
	if err != nil {
		return fail("fixtures: %v", err)
	}
	defs := make([]*process.Process, 0, len(jobs))
	for _, j := range jobs {
		defs = append(defs, j.Proc)
	}
	reg := metrics.New()
	layer := NewLayer(fed, sc.Plan, sc.Policy, sc.Breaker, reg)

	// The run writes through the (possibly crash-armed) wrapper; recovery
	// and checks read and write the backend directly — the wrapper drops
	// post-crash appends, as a crashed system must.
	backend := wal.NewMemLog()
	var log wal.Log = backend
	if sc.CrashAfterWAL > 0 {
		log = fault.WrapWAL(backend, sc.CrashAfterWAL)
	}

	var res runResult
	crashed := false
	switch sc.Engine {
	case "runtime":
		r, nerr := runtime.New(fed, runtime.Config{
			Mode: sc.Mode, Log: log, MaxRestarts: 64,
			Metrics: reg, Resilience: layer, GroupCommit: sc.GroupCommit,
		})
		if nerr != nil {
			return fail("new runtime: %v", nerr)
		}
		out, rerr := r.Run(context.Background(), jobs)
		if rerr != nil {
			if errors.Is(rerr, scheduler.ErrCrashed) && sc.CrashAfterWAL > 0 {
				crashed = true
			} else {
				return fail("run: %v", rerr)
			}
		}
		if out != nil {
			res = runResult{sched: out.Schedule, metrics: out.Metrics, outcomes: out.Outcomes}
		}
	default:
		eng, nerr := scheduler.New(fed, scheduler.Config{
			Mode: sc.Mode, Log: log, MaxRestarts: 64,
			Metrics: reg, Resilience: layer, GroupCommit: sc.GroupCommit,
		})
		if nerr != nil {
			return fail("new engine: %v", nerr)
		}
		out, rerr := eng.RunJobs(jobs)
		if rerr != nil {
			if errors.Is(rerr, scheduler.ErrCrashed) && sc.CrashAfterWAL > 0 {
				crashed = true
			} else {
				return fail("run: %v", rerr)
			}
		}
		if out != nil {
			res = runResult{sched: out.Schedule, metrics: out.Metrics, outcomes: out.Outcomes}
		}
	}

	// Recovery: crashed runs must be repaired; clean runs must make it a
	// no-op. Recovery runs on the reliable path (no chaos), as a
	// restarted scheduler would.
	preRecs, err := backend.Records()
	if err != nil {
		return fail("reading log: %v", err)
	}
	pre := len(preRecs)
	if _, err := scheduler.Recover(fed, backend, defs); err != nil {
		return fail("recovery: %v", err)
	}
	if err := fault.CheckRecovered(fault.CheckInput{
		Fed: fed, Log: backend, Defs: defs, PreCrashRecords: pre,
	}); err != nil {
		return fail("%v", err)
	}

	// Live-run invariants (the observed schedule only exists for clean
	// runs; a crashed run is judged through its log above).
	if !crashed {
		if res.sched == nil {
			return fail("clean run returned no schedule")
		}
		ok, at, _, perr := res.sched.PRED()
		if perr != nil {
			return fail("PRED check: %v", perr)
		}
		if !ok {
			return fail("observed schedule not prefix-reducible (prefix %d)", at)
		}
		for id, o := range res.outcomes {
			if !o.Committed && !o.Aborted {
				return fail("process %s not terminal", id)
			}
		}
	}

	// Lemma 2 over the whole log: conflicting (or same-process)
	// compensations must run in reverse order of their bases' commits.
	if err := checkCompensationOrder(fed, preRecs); err != nil {
		return fail("%v", err)
	}

	// Resilience-layer invariants: internal accounting consistent, no
	// breaker left open against a subsystem whose last delivery worked.
	if err := layer.CheckConsistent(); err != nil {
		return fail("%v", err)
	}
	if stuck := layer.StuckBreakers(); len(stuck) > 0 {
		return fail("stuck breakers (open but last delivery succeeded): %v", stuck)
	}

	return checkClass(sc, fed, layer, res, fail)
}

// runResult is the engine-independent slice of a run result the checks
// need.
type runResult struct {
	sched    *schedule.Schedule
	metrics  scheduler.Metrics
	outcomes map[process.ID]*scheduler.Outcome
}

// checkClass asserts the scenario class did what it is named for.
func checkClass(sc Scenario, fed *subsystem.Federation, layer *Layer, res runResult, fail func(string, ...any) error) error {
	ts := layer.Transport().Stats()
	ls := layer.Stats()
	bt := layer.Breakers().Transitions()
	switch sc.Class {
	case "transient-storm":
		if ts.Attempts >= 30 && ts.Transient == 0 {
			return fail("class assert: no transient failures injected over %d attempts", ts.Attempts)
		}
	case "timeout-ambiguity":
		if ts.Attempts >= 30 && ts.Timeouts == 0 {
			return fail("class assert: no timeouts injected over %d attempts", ts.Attempts)
		}
	case "duplicate-delivery":
		if ts.Attempts >= 30 && ts.Duplicates == 0 {
			return fail("class assert: no duplicates injected over %d attempts", ts.Attempts)
		}
		// Exactly-once mechanics: delivered duplicates must show up as
		// idempotent replays, never as second executions.
		var replays int64
		for _, sub := range fed.Subsystems() {
			_, r := sub.IdemStats()
			replays += r
		}
		if ts.Duplicates >= 3 && replays == 0 {
			return fail("class assert: %d duplicate deliveries but zero idempotent replays", ts.Duplicates)
		}
	case "latency-spike":
		if ts.Attempts >= 30 && ts.Slow == 0 {
			return fail("class assert: no latency spikes injected over %d attempts", ts.Attempts)
		}
	case "outage-failover":
		// The ◁-path assertion of the battery: with the PDM dead, every
		// construction process must still commit — via the docCAD
		// alternative — and the breaker must have tripped and steered
		// later processes past the dead subsystem without touching it.
		for id, o := range res.outcomes {
			if !o.Committed {
				return fail("class assert: process %s did not commit despite ◁ alternative", id)
			}
		}
		alt := 0
		for _, ev := range res.sched.Events() {
			if ev.Type == schedule.Invoke && ev.Service == paper.SvcDocCAD {
				alt++
			}
		}
		if alt == 0 {
			return fail("class assert: no process took the %s ◁ alternative", paper.SvcDocCAD)
		}
		if bt.Opened == 0 {
			return fail("class assert: pdm outage never opened its breaker")
		}
		if ls.FastFails == 0 {
			return fail("class assert: open breaker never fast-failed a pdm invocation")
		}
	case "outage-backward":
		// No alternative avoids the floor: every production process must
		// terminate via backward recovery, compensating its
		// pre-pivot work.
		for id, o := range res.outcomes {
			if !o.Aborted {
				return fail("class assert: process %s did not abort despite dead pivot subsystem", id)
			}
		}
		if res.metrics.Compensations < 3 {
			return fail("class assert: only %d compensations (want >= 3 per aborted process)", res.metrics.Compensations)
		}
		if bt.Opened == 0 {
			return fail("class assert: floor outage never opened its breaker")
		}
	case "runtime-mixed":
		if ts.Attempts == 0 {
			return fail("class assert: runtime run made no transport attempts")
		}
	case "chaos-crash":
		// Judged by CheckRecovered above.
	}
	return nil
}

// Summary aggregates a chaos batch.
type Summary struct {
	Scenarios int            `json:"scenarios"`
	Failures  []string       `json:"failures,omitempty"`
	ByClass   map[string]int `json:"byClass"`
}

// RunChaos runs the scenarios of seeds [first, first+n) and collects a
// summary; every failure message embeds the reproducing seed.
func RunChaos(first, n int64) Summary {
	return RunChaosProgress(first, n, nil)
}

// RunChaosProgress is RunChaos with a per-seed progress hook, called
// before each scenario runs; the CLI uses it to report the in-flight
// reproducing seed when the battery is interrupted.
func RunChaosProgress(first, n int64, progress func(seed int64, class string)) Summary {
	sum := Summary{ByClass: make(map[string]int)}
	for seed := first; seed < first+n; seed++ {
		sc := ScenarioFor(seed)
		if progress != nil {
			progress(seed, sc.Class)
		}
		sum.Scenarios++
		sum.ByClass[sc.Class]++
		if err := RunScenario(sc); err != nil {
			sum.Failures = append(sum.Failures, err.Error())
		}
	}
	return sum
}

// checkCompensationOrder asserts Lemma 2 over a run's log: when two
// compensations undo base activities that conflict (or belong to the
// same process) and both bases executed before either compensation ran,
// the compensations must run in reverse order of their bases. A base
// that only executed after the other compensation belongs to a later,
// independent episode and is unconstrained.
func checkCompensationOrder(fed *subsystem.Federation, recs []wal.Record) error {
	table, err := fed.ConflictTable()
	if err != nil {
		return fmt.Errorf("conflict table: %w", err)
	}
	type comp struct {
		proc    string
		local   int
		pos     int // compensation position in the log
		basePos int // base execution position in the log
		baseSvc string
	}
	svc := make(map[string]string)  // proc/local -> base service
	basePos := make(map[string]int) // proc/local -> latest execution position
	var comps []comp
	for i, r := range recs {
		key := fmt.Sprintf("%s/%d", r.Proc, r.Local)
		switch {
		case r.Type == wal.RecDispatch:
			svc[key] = r.Service
		case r.Type == wal.RecOutcome && (r.Outcome == "prepared" || r.Outcome == "committed"):
			// Execution (serialization) order, not 2PC-resolution order:
			// a deferred commit resolves at process termination, long
			// after the local transaction took its locks.
			basePos[key] = i
		case r.Type == wal.RecCompensate:
			b, known := basePos[key]
			if !known {
				return fmt.Errorf("compensated %s whose base execution is not in the log", key)
			}
			comps = append(comps, comp{proc: r.Proc, local: r.Local, pos: i, basePos: b, baseSvc: svc[key]})
		}
	}
	for i := 0; i < len(comps); i++ {
		for j := i + 1; j < len(comps); j++ {
			a, b := comps[i], comps[j]
			// Lemma 2 orders compensations of *conflicting* bases;
			// non-conflicting ones (e.g. parallel siblings of one
			// process) may compensate in any order.
			related := a.baseSvc != "" && b.baseSvc != "" &&
				table.Conflicts(a.baseSvc, b.baseSvc)
			// Violation: conflicting bases, executed a-then-b, both live
			// when a's compensation ran, yet a was compensated first.
			if related && a.basePos < b.basePos && b.basePos < a.pos {
				return fmt.Errorf("Lemma 2 violated: compensation of %s/%d (base @%d) before %s/%d (base @%d)",
					a.proc, a.local, a.basePos, b.proc, b.local, b.basePos)
			}
		}
	}
	return nil
}
