// The hub-kill torture battery: seeded scenarios that kill -9 the
// coordination hub at its force-log and 2PC points (sometimes while a
// scheduler node is dying too), let the cluster monitor reopen a new
// incarnation from the stitched per-node WALs plus the hub journal, and
// judge every reopen — and the final composed recovery — with
// fault.CheckRecovered over the global history. A fourth class crashes
// a node under lease-based membership and requires the hub to detect
// the death by lease expiry alone and re-home the safe orphans. Every
// failure message embeds the reproducing seed.
package federation

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"transproc/internal/chaos"
	"transproc/internal/fault"
	"transproc/internal/metrics"
)

// HubScenario is one fully determined hub-torture case. HubScenarioFor
// is a pure function of the seed, so a failing seed reproduces the
// exact same scenario anywhere. The seed space is independent of
// FedScenarioFor's — adding this battery shifts no existing seeds.
type HubScenario struct {
	Seed  int64
	Class string
	Nodes int
	// HubPoint/HubCount arm the hub-side kill (hub:dispatch,
	// hub:decision, hub:resolve) on the first incarnation.
	HubPoint string
	HubCount int
	// CrashNode/CrashPoint/CrashCount arm a node-side crash for the
	// double-fault and lease-expiry classes.
	CrashNode  int
	CrashPoint string
	CrashCount int
	// LeaseTTL/HeartbeatEvery enable lease-based membership; with
	// LeaseTTL set the cluster never declares a crashed node dead on
	// the hub — lease expiry must detect the silence.
	LeaseTTL       time.Duration
	HeartbeatEvery time.Duration
	// Wire is the background transport fault plan.
	Wire chaos.Plan
}

// HubScenarioFor derives the deterministic scenario of a seed. Four
// classes cycle by seed: the hub killed in the dispatch window (before
// the node's force-log lands), the hub killed inside the 2PC window
// (between the decision stamp and the resolve), a double fault where a
// node dies mid-2PC and the hub is killed in the same run, and a node
// crash under lease-based membership where expiry — not an explicit
// death declaration — must trigger the re-assignment. Every class runs
// under background wire chaos.
func HubScenarioFor(seed int64) HubScenario {
	rng := rand.New(rand.NewSource(seed*2862933555777941757 + 7046029254386353087))
	sc := HubScenario{
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
	switch seed % 4 {
	case 0:
		// Kill the hub inside a dispatch admission: the stamp may be
		// issued and journaled under the lease but the node's force-log
		// for it may or may not have landed — both sides of that race
		// are legal crash windows the reopen's recovery must resolve.
		sc.Class = "hub-kill-mid-dispatch"
		sc.HubPoint = fault.PointHubDispatch
		sc.HubCount = 1 + rng.Intn(30)
	case 1:
		// Kill the hub between a 2PC decision stamp and the resolve
		// fan-out: the in-doubt transactions must settle exactly as
		// scheduler.Recover's presumed-commit/-abort rules dictate.
		sc.Class = "hub-kill-2pc-window"
		sc.HubPoint = fault.PointHubDecision
		if rng.Intn(2) == 0 {
			sc.HubPoint = fault.PointHubResolve
		}
		sc.HubCount = 1 + rng.Intn(3)
	case 2:
		// Double fault: a node dies mid-2PC and the hub is killed in
		// the same run. Whichever order the points fire in, the reopen
		// plus the final composed recovery must leave no residue.
		sc.Class = "hub-kill-double-fault"
		sc.HubPoint = fault.PointHubDispatch
		sc.HubCount = 5 + rng.Intn(20)
		sc.CrashNode = rng.Intn(sc.Nodes)
		sc.CrashPoint = fault.PointAfterDecision
		if rng.Intn(2) == 0 {
			sc.CrashPoint = fault.PointFedAfterPrepared
		}
		sc.CrashCount = 1 + rng.Intn(2)
	default:
		// Lease expiry as the death detector: the node crashes early
		// and nobody tells the hub — its lease must lapse, its safe
		// orphans re-home to survivors, and its prepared transactions
		// settle under the zombie rules. Half the seeds add a partition
		// window on a survivor for extra reconnect churn.
		sc.Class = "fed-lease-expiry"
		sc.CrashNode = rng.Intn(sc.Nodes)
		sc.CrashPoint = fault.PointFedDispatch
		if rng.Intn(2) == 0 {
			sc.CrashPoint = fault.PointFedAfterPrepared
		}
		sc.CrashCount = 1 + rng.Intn(3)
		sc.LeaseTTL = 20 * time.Millisecond
		sc.HeartbeatEvery = 5 * time.Millisecond
		if rng.Intn(2) == 0 {
			other := (sc.CrashNode + 1) % sc.Nodes
			from := int64(20 + rng.Intn(200))
			sc.Wire.Outages = []chaos.Outage{{
				Subsystem: fmt.Sprintf("node%d", other),
				From:      from, To: from + int64(150+rng.Intn(400)),
			}}
		}
	}
	return sc
}

// HubStats are the per-scenario fault-path counters the summary
// aggregates (how often each rare path actually fired).
type HubStats struct {
	Kills         int
	Reopens       int
	Adoptions     int
	LeaseExpiries int
	Reattached    int
}

// RunHubScenario executes one scenario end to end: cluster run with the
// hub kill armed (the monitor reopens every killed incarnation and the
// OnReopen judge runs CheckRecovered at each reopen boundary), then the
// final composed recovery over the full stitched multi-incarnation
// history, judged again by CheckRecovered, with no in-doubt subsystem
// transactions left behind.
func RunHubScenario(sc HubScenario) (HubStats, error) {
	var st HubStats
	fail := func(format string, args ...any) error {
		return fmt.Errorf("seed %d (%s): %s", sc.Seed, sc.Class, fmt.Sprintf(format, args...))
	}
	fed, defs, _, err := fedTortureWorld(FedScenario{Seed: sc.Seed, Class: sc.Class})
	if err != nil {
		return st, err
	}
	reg := metrics.New()
	// Every reopen is a crash epoch of the full run; its boundary in the
	// final stitched history is where the re-stamped recovery tail
	// starts (the first tail stamp exceeds every stamp the dead
	// incarnation could have issued, so the stitch puts the whole
	// pre-crash history before it).
	var bmu sync.Mutex
	var boundStamps []int64
	cfg := Config{
		Nodes: sc.Nodes, MaxRestarts: 8,
		Metrics: reg, Wire: sc.Wire,
		LeaseTTL: sc.LeaseTTL, HeartbeatEvery: sc.HeartbeatEvery,
		OnReopen: func(rep *ReopenReport) error {
			bmu.Lock()
			if len(rep.Tail) > 0 {
				boundStamps = append(boundStamps, rep.Tail[0].Stamp)
			}
			bmu.Unlock()
			return fault.CheckRecovered(fault.CheckInput{
				Fed: fed, Log: rep.Log, Defs: defs,
				PreCrashRecords: rep.Pre, PreCrashFull: rep.Pre,
			})
		},
	}
	if sc.HubPoint != "" {
		cfg.HubKill = CrashSpec{Point: sc.HubPoint, Count: sc.HubCount}
	}
	if sc.CrashPoint != "" {
		cfg.Crash = CrashSpec{Node: sc.CrashNode, Point: sc.CrashPoint, Count: sc.CrashCount}
	}
	c, err := NewCluster(fed, defs, cfg)
	if err != nil {
		return st, fail("%v", err)
	}
	defer c.Close()
	res := c.Run()
	st = HubStats{
		Kills:         int(reg.Counter(metrics.FedHubKills)),
		Reopens:       res.HubRestarts,
		Adoptions:     int(reg.Counter(metrics.FedAdoptions)),
		LeaseExpiries: int(reg.Counter(metrics.FedLeaseExpiries)),
		Reattached:    res.Reattached,
	}
	if res.HubErr != nil {
		return st, fail("hub reopen: %v", res.HubErr)
	}
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			return st, fail("node %d: %v", i, nerr)
		}
	}
	// The kill counts are soft (a high count can outlive the run, and
	// hub:resolve only fires on cross-node 2PC), but a kill that DID
	// fire must have been ridden out by a reopen.
	if st.Kills > 0 && st.Reopens == 0 {
		return st, fail("hub killed %d times but never reopened", st.Kills)
	}
	if sc.Class == "fed-lease-expiry" && crashedAny(res) {
		if st.LeaseExpiries == 0 {
			// The survivors drained before the dead node's lease lapsed,
			// so the in-run sweeps never caught it. Let the TTL elapse
			// and sweep once more — the exact path the monitor runs
			// mid-flight — so every seed exercises silence-based death
			// detection (the hub was never told about the crash).
			time.Sleep(sc.LeaseTTL + sc.LeaseTTL/2)
			c.Hub().ExpireLeases()
			st.LeaseExpiries = int(reg.Counter(metrics.FedLeaseExpiries))
		}
		if st.LeaseExpiries == 0 {
			return st, fail("crashed node's lease never expired (expiry is the only death detector here)")
		}
	}

	// Final composed recovery over the full multi-incarnation stitched
	// history (pre-crash records, every reopen's re-stamped recovery
	// tail, and the post-reopen session, in stamp order). Each reopen
	// boundary is handed to the judge as an earlier crash epoch — the
	// reopen's recovery records are crash aborts there, not forward
	// work (the stitched MemLog numbers LSNs by position, so a stamp
	// boundary maps directly to an LSN boundary).
	log, pre, _, err := c.Recover()
	if err != nil {
		return st, fail("recovery: %v", err)
	}
	recs, err := log.Records()
	if err != nil {
		return st, fail("reading stitched log: %v", err)
	}
	bmu.Lock()
	var prior []int64
	for _, s := range boundStamps {
		var lsn int64
		for i := 0; i < pre && i < len(recs); i++ {
			if recs[i].Stamp < s {
				lsn = recs[i].LSN
			}
		}
		if lsn > 0 {
			prior = append(prior, lsn)
		}
	}
	bmu.Unlock()
	if err := fault.CheckRecovered(fault.CheckInput{
		Fed: fed, Log: log, Defs: defs, PreCrashRecords: pre, PreCrashFull: pre,
		PriorCrashLSNs: prior,
	}); err != nil {
		return st, fail("%v", err)
	}
	if doubt := fed.InDoubt(); len(doubt) > 0 {
		return st, fail("in-doubt transactions left after final recovery: %v", doubt)
	}
	return st, nil
}

// crashedAny reports whether any node's armed crash point fired.
func crashedAny(res *RunResult) bool {
	for _, c := range res.Crashed {
		if c {
			return true
		}
	}
	return false
}

// HubSummary aggregates a hub-torture batch.
type HubSummary struct {
	Scenarios     int            `json:"scenarios"`
	Kills         int            `json:"kills"`
	Reopens       int            `json:"reopens"`
	Adoptions     int            `json:"adoptions"`
	LeaseExpiries int            `json:"leaseExpiries"`
	Reattached    int            `json:"reattached"`
	Failures      []string       `json:"failures,omitempty"`
	ByClass       map[string]int `json:"byClass"`
}

// RunHubTorture runs the scenarios of seeds [first, first+n); every
// failure message embeds the reproducing seed.
func RunHubTorture(first, n int64) HubSummary {
	return RunHubTortureProgress(first, n, nil)
}

// RunHubTortureProgress is RunHubTorture with a per-seed progress hook,
// called before each scenario runs; the CLI uses it to report the
// in-flight reproducing seed when the battery is interrupted.
func RunHubTortureProgress(first, n int64, progress func(seed int64, class string)) HubSummary {
	sum := HubSummary{ByClass: make(map[string]int)}
	for seed := first; seed < first+n; seed++ {
		sc := HubScenarioFor(seed)
		if progress != nil {
			progress(seed, sc.Class)
		}
		sum.Scenarios++
		sum.ByClass[sc.Class]++
		st, err := RunHubScenario(sc)
		sum.Kills += st.Kills
		sum.Reopens += st.Reopens
		sum.Adoptions += st.Adoptions
		sum.LeaseExpiries += st.LeaseExpiries
		sum.Reattached += st.Reattached
		if err != nil {
			sum.Failures = append(sum.Failures, err.Error())
		}
	}
	return sum
}
