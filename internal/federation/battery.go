package federation

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"transproc/internal/activity"
	"transproc/internal/chaos"
	"transproc/internal/fault"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// FedScenario is one fully determined federation-torture case: a
// seeded workload partitioned across nodes, a transport fault plan and
// an optional node-crash point. FedScenarioFor(seed) is a pure
// function, so a failing seed reproduces the exact scenario anywhere.
type FedScenario struct {
	Seed  int64
	Class string
	Nodes int
	// CrashNode/CrashPoint/CrashCount arm a crash-point injector on one
	// node (fed:dispatch, fed:after-prepared, twopc:after-decision,
	// twopc:mid-resolve).
	CrashNode  int
	CrashPoint string
	CrashCount int
	// Wire is the transport fault plan (drops, ambiguous timeouts,
	// duplicates, partition windows).
	Wire chaos.Plan
	// DispatchBudget caps transport retries of invocation RPCs; a
	// partition window longer than the budget voids the dispatch and
	// forces the node onto the failure path.
	DispatchBudget int
	// Rejoin runs a second cluster session over the recovered
	// federation after the crash cycle.
	Rejoin bool
}

// FedScenarioFor derives the deterministic scenario of a seed. Three
// classes cycle by seed: a node killed mid-2PC (after the decision
// record or between participant commits), a partition window cutting a
// node off during cross-node resolution (sometimes long enough to void
// dispatches), and a node crash in the dispatch window followed by
// recovery plus a re-join session. Every class runs under background
// wire chaos.
func FedScenarioFor(seed int64) FedScenario {
	rng := rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))
	sc := FedScenario{
		Seed:  seed,
		Nodes: 2 + rng.Intn(2),
		Wire: chaos.Plan{
			Seed:       seed,
			PTransient: 0.02,
			PTimeout:   0.04,
			PDuplicate: 0.04,
		},
	}
	// This draw once chose PREDCascade for a third of the seeds; it is
	// kept so every seed's later draws stay the same.
	rng.Intn(3)
	switch seed % 3 {
	case 0:
		// Kill a node between its 2PC decision record and the
		// participant commits: the hub and the stitched log disagree
		// about how far resolution got, and recovery must finish the
		// commit under presumed-commit (the decision is logged).
		sc.Class = "fed-kill-mid-2pc"
		sc.CrashNode = rng.Intn(sc.Nodes)
		sc.CrashPoint = fault.PointAfterDecision
		if rng.Intn(2) == 0 {
			sc.CrashPoint = fault.PointMidResolve
		}
		sc.CrashCount = 1 + rng.Intn(2)
	case 1:
		// Partition one node for a window of delivery attempts while
		// cross-node conflicts are in flight. The window is measured in
		// attempts, so it deterministically heals; a third of the seeds
		// shrink the dispatch budget below the window so dispatches void
		// and the node takes the invocation-failure path instead.
		sc.Class = "fed-partition-resolve"
		node := rng.Intn(sc.Nodes)
		from := int64(20 + rng.Intn(200))
		width := int64(150 + rng.Intn(700))
		if rng.Intn(3) == 0 {
			sc.DispatchBudget = 256
			width = 2048
		}
		sc.Wire.Outages = []chaos.Outage{{
			Subsystem: fmt.Sprintf("node%d", node),
			From:      from, To: from + width,
		}}
	default:
		// Crash a node in the dispatch window (before the RPC, or after
		// force-logging "prepared" but before the local commit — the
		// orphan window), recover the stitched history, then re-join:
		// a fresh cluster session runs new work over the recovered
		// federation.
		sc.Class = "fed-crash-rejoin"
		sc.CrashNode = rng.Intn(sc.Nodes)
		sc.CrashPoint = fault.PointFedDispatch
		if rng.Intn(2) == 0 {
			sc.CrashPoint = fault.PointFedAfterPrepared
		}
		sc.CrashCount = 1 + rng.Intn(25)
		sc.Rejoin = true
	}
	return sc
}

// fedTortureProfile is the workload a scenario runs: the differential
// profile plus transient retriable failures.
func fedTortureProfile(seed int64) workload.Profile {
	p := workload.DefaultProfile(seed)
	p.Processes = 12
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.10
	return p
}

// fedChooseFailures picks deterministic permanent failures for roughly
// a third of the processes (compensatable or pivot forward services
// only), exactly like the crash-torture battery.
func fedChooseFailures(w *workload.Workload, seed int64) []fault.SubsystemFail {
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	var rules []fault.SubsystemFail
	for _, j := range w.Jobs {
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
		rules = append(rules, fault.SubsystemFail{
			Proc:    string(j.Proc.ID),
			Service: candidates[rng.Intn(len(candidates))],
		})
	}
	return rules
}

func fedTortureWorld(sc FedScenario) (*subsystem.Federation, []*process.Process, []fault.SubsystemFail, error) {
	w, err := workload.Generate(fedTortureProfile(sc.Seed))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("seed %d: generating workload: %w", sc.Seed, err)
	}
	rules := fedChooseFailures(w, sc.Seed)
	for _, r := range rules {
		sub, ok := w.Fed.Owner(r.Service)
		if !ok {
			return nil, nil, nil, fmt.Errorf("seed %d: no owner for failed service %s", sc.Seed, r.Service)
		}
		sub.FailService(r.Proc, r.Service)
	}
	defs := make([]*process.Process, 0, len(w.Jobs))
	for _, j := range w.Jobs {
		defs = append(defs, j.Proc)
	}
	return w.Fed, defs, rules, nil
}

// RunFedScenario executes one scenario end to end: cluster run (a
// crashed node is declared dead and the survivors drain), stitched
// composed recovery, CheckRecovered over the global history, and — for
// re-join scenarios — a second cluster session over the recovered
// federation. altFired reports whether some origin with a permanently
// failing service still committed, i.e. a ◁ alternative carried it
// forward on a surviving node.
func RunFedScenario(sc FedScenario) (altFired bool, err error) {
	fed, defs, rules, err := fedTortureWorld(sc)
	if err != nil {
		return false, err
	}
	reg := metrics.New()
	cfg := Config{
		Nodes: sc.Nodes, MaxRestarts: 8,
		Metrics: reg, Wire: sc.Wire, DispatchBudget: sc.DispatchBudget,
	}
	if sc.CrashPoint != "" {
		cfg.Crash = CrashSpec{Node: sc.CrashNode, Point: sc.CrashPoint, Count: sc.CrashCount}
	}
	c, err := NewCluster(fed, defs, cfg)
	if err != nil {
		return false, fmt.Errorf("seed %d (%s): %w", sc.Seed, sc.Class, err)
	}
	defer c.Close()
	res := c.Run()
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			return false, fmt.Errorf("seed %d (%s): node %d: %w", sc.Seed, sc.Class, i, nerr)
		}
	}
	if len(sc.Wire.Outages) > 0 && reg.Counter(metrics.FedWireDrops) == 0 {
		return false, fmt.Errorf("seed %d (%s): partition window never dropped an attempt", sc.Seed, sc.Class)
	}

	// Composed recovery over the stitched per-node WALs, then the full
	// recovery invariant suite on the global history.
	log, pre, _, err := c.Recover()
	if err != nil {
		return false, fmt.Errorf("seed %d (%s): recovery: %w", sc.Seed, sc.Class, err)
	}
	if err := fault.CheckRecovered(fault.CheckInput{
		Fed: fed, Log: log, Defs: defs, PreCrashRecords: pre, PreCrashFull: pre,
	}); err != nil {
		return false, fmt.Errorf("seed %d (%s): %w", sc.Seed, sc.Class, err)
	}

	altFired = altsFired(res, rules, c)

	if sc.Rejoin {
		if err := runRejoin(fed, defs, sc); err != nil {
			return altFired, err
		}
	}
	return altFired, nil
}

// altsFired reports whether an origin with a permanent failure rule
// both failed an activity (a RecFailed record exists) and still
// committed — only a ◁ alternative path can do that.
func altsFired(res *RunResult, rules []fault.SubsystemFail, c *Cluster) bool {
	recs, err := c.Stitched()
	if err != nil {
		return false
	}
	failed := make(map[string]bool)
	for _, r := range recs {
		if r.Type == wal.RecFailed {
			origin := r.Proc
			if i := strings.IndexByte(origin, '+'); i >= 0 {
				origin = origin[:i]
			}
			failed[origin] = true
		}
	}
	committed := make(map[string]bool)
	for id, out := range res.Outcomes {
		origin := string(id)
		if i := strings.IndexByte(origin, '+'); i >= 0 {
			origin = origin[:i]
		}
		if out.Committed {
			committed[origin] = true
		}
	}
	for _, r := range rules {
		if failed[r.Proc] && committed[r.Proc] {
			return true
		}
	}
	return false
}

// runRejoin starts a fresh cluster session over the recovered
// federation — the crashed node re-joins with new work — and asserts
// the session completes with a prefix-reducible schedule and no
// residue of the first session blocking it.
func runRejoin(fed *subsystem.Federation, defs []*process.Process, sc FedScenario) error {
	redefs := make([]*process.Process, len(defs))
	for i, def := range defs {
		redefs[i] = def.WithID(def.ID + "-rj")
	}
	c, err := NewCluster(fed, redefs, Config{
		Nodes: sc.Nodes, MaxRestarts: 8, Wire: chaos.Plan{Seed: sc.Seed + 1},
	})
	if err != nil {
		return fmt.Errorf("seed %d (%s): rejoin: %w", sc.Seed, sc.Class, err)
	}
	defer c.Close()
	res := c.Run()
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			return fmt.Errorf("seed %d (%s): rejoin node %d: %w", sc.Seed, sc.Class, i, nerr)
		}
	}
	if len(res.Outcomes) < len(redefs) {
		return fmt.Errorf("seed %d (%s): rejoin: %d outcomes for %d processes", sc.Seed, sc.Class, len(res.Outcomes), len(redefs))
	}
	for id, out := range res.Outcomes {
		if !out.Committed && !out.Aborted {
			return fmt.Errorf("seed %d (%s): rejoin process %s not terminal", sc.Seed, sc.Class, id)
		}
	}
	recs, err := c.Stitched()
	if err != nil {
		return fmt.Errorf("seed %d (%s): rejoin stitch: %w", sc.Seed, sc.Class, err)
	}
	table, err := fed.ConflictTable()
	if err != nil {
		return fmt.Errorf("seed %d (%s): rejoin conflict table: %w", sc.Seed, sc.Class, err)
	}
	sched, err := fault.ScheduleFromWAL(table, redefs, recs, len(recs))
	if err != nil {
		return fmt.Errorf("seed %d (%s): rejoin schedule: %w", sc.Seed, sc.Class, err)
	}
	ok, at, _, err := sched.PRED()
	if err != nil {
		return fmt.Errorf("seed %d (%s): rejoin PRED: %w", sc.Seed, sc.Class, err)
	}
	if !ok {
		return fmt.Errorf("seed %d (%s): rejoin schedule not prefix-reducible (prefix %d)", sc.Seed, sc.Class, at)
	}
	if doubt := fed.InDoubt(); len(doubt) > 0 {
		return fmt.Errorf("seed %d (%s): rejoin left in-doubt transactions: %v", sc.Seed, sc.Class, doubt)
	}
	return nil
}

// FedSummary aggregates a federation-torture batch.
type FedSummary struct {
	Scenarios int            `json:"scenarios"`
	AltFires  int            `json:"altFires"`
	Failures  []string       `json:"failures,omitempty"`
	ByClass   map[string]int `json:"byClass"`
}

// RunFedTorture runs the scenarios of seeds [first, first+n) and
// collects a summary; every failure message embeds the reproducing
// seed.
func RunFedTorture(first, n int64) FedSummary {
	return RunFedTortureProgress(first, n, nil)
}

// RunFedTortureProgress is RunFedTorture with a per-seed progress hook,
// called before each scenario runs; the CLI uses it to report the
// in-flight reproducing seed when the battery is interrupted.
func RunFedTortureProgress(first, n int64, progress func(seed int64, class string)) FedSummary {
	sum := FedSummary{ByClass: make(map[string]int)}
	for seed := first; seed < first+n; seed++ {
		sc := FedScenarioFor(seed)
		if progress != nil {
			progress(seed, sc.Class)
		}
		sum.Scenarios++
		sum.ByClass[sc.Class]++
		alt, err := RunFedScenario(sc)
		if alt {
			sum.AltFires++
		}
		if err != nil {
			sum.Failures = append(sum.Failures, err.Error())
		}
	}
	return sum
}
