package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"transproc/internal/fault"
	"transproc/internal/federation"
	"transproc/internal/process"
	"transproc/internal/workload"
)

// runFed implements "tpsim fed": a multi-node federated run as a
// command.
//
//	tpsim fed [-nodes N] [-procs P] [-seed S] [-lease D] [-heartbeat D]
//	tpsim fed -torture [-seeds N] [-first S] [-fedseed K] [-json]
//	tpsim fed -hubtorture [-seeds N] [-first S] [-hubseed K] [-json]
//	tpsim fed -bench [-procs P] [-seed S] [-reps R] [-json]
//	tpsim fed -benchhub [-procs P] [-seed S] [-reps R] [-json]
//
// The default form partitions a seeded workload across N scheduler
// nodes (hub + localhost TCP), runs it, stitches the per-node WALs by
// hub stamp and verifies the combined schedule is prefix-reducible.
// -lease/-heartbeat enable lease-based membership: nodes heartbeat the
// hub and silent nodes are declared dead by lease expiry instead of an
// explicit death report.
// -torture runs the federation-torture battery (node kills mid-2PC,
// partition windows, crash + re-join; see internal/federation).
// -hubtorture runs the hub-kill battery (hub killed mid-dispatch and
// inside the 2PC window, hub+node double faults, lease-expiry
// re-assignment), each seed judged by CheckRecovered at every reopen
// and over the final stitched multi-incarnation history.
// -bench sweeps 1, 2 and 4 nodes over the identical workload and
// reports throughput — the measurement behind BENCH_fed.json (E16).
// -benchhub measures hub-kill MTTR (detection + journal reopen +
// recovery + node reattach) per node count — BENCH_fed_hub.json (E18).
func runFed(args []string) error {
	fs := flag.NewFlagSet("fed", flag.ContinueOnError)
	nodes := fs.Int("nodes", 2, "scheduler node count")
	procs := fs.Int("procs", 24, "process count")
	seed := fs.Int64("seed", 1, "workload seed")
	lease := fs.Duration("lease", 0, "lease TTL for membership (0 = explicit death reports)")
	heartbeat := fs.Duration("heartbeat", 0, "node heartbeat interval (default lease/4 when -lease is set)")
	torture := fs.Bool("torture", false, "run the federation-torture battery")
	hubTorture := fs.Bool("hubtorture", false, "run the hub-kill torture battery")
	seeds := fs.Int64("seeds", 200, "torture: number of seeds")
	first := fs.Int64("first", 0, "torture: first seed")
	one := fs.Int64("fedseed", -1, "torture: run only this seed (verbose reproduction)")
	oneHub := fs.Int64("hubseed", -1, "hubtorture: run only this seed (verbose reproduction)")
	bench := fs.Bool("bench", false, "sweep node counts and report throughput")
	benchHub := fs.Bool("benchhub", false, "measure hub-kill MTTR per node count")
	reps := fs.Int("reps", 3, "bench: repetitions per node count")
	asJSON := fs.Bool("json", false, "emit results as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *torture {
		return runFedTortureCmd(*first, *seeds, *one, *asJSON)
	}
	if *hubTorture {
		return runHubTortureCmd(*first, *seeds, *oneHub, *asJSON)
	}
	if *bench {
		return runFedBench(*procs, *seed, *reps, *asJSON)
	}
	if *benchHub {
		return runFedBenchHub(*procs, *seed, *reps, *asJSON)
	}

	res, elapsed, err := fedRunLease(*procs, *seed, *nodes, *lease, *heartbeat)
	if err != nil {
		return err
	}
	committed, aborted := 0, 0
	for _, o := range res.Outcomes {
		if o.Committed {
			committed++
		} else if o.Aborted {
			aborted++
		}
	}
	fmt.Printf("fed: %d processes over %d nodes (%s): %d committed, %d aborted incarnations, stitched schedule PRED ✓\n",
		*procs, *nodes, elapsed.Round(time.Millisecond), committed, aborted)
	return nil
}

// fedRun executes one federated workload and verifies the stitched
// schedule, returning the run result and wall-clock duration.
func fedRun(procs int, seed int64, nodes int) (*federation.RunResult, time.Duration, error) {
	return fedRunLease(procs, seed, nodes, 0, 0)
}

// fedRunLease is fedRun with lease-based membership enabled when
// lease > 0 (heartbeat defaults to lease/4).
func fedRunLease(procs int, seed int64, nodes int, lease, heartbeat time.Duration) (*federation.RunResult, time.Duration, error) {
	p := workload.DefaultProfile(seed)
	p.Processes = procs
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.05
	w, err := workload.Generate(p)
	if err != nil {
		return nil, 0, err
	}
	defs := make([]*process.Process, 0, len(w.Jobs))
	for _, j := range w.Jobs {
		defs = append(defs, j.Proc)
	}
	if lease > 0 && heartbeat <= 0 {
		heartbeat = lease / 4
	}
	c, err := federation.NewCluster(w.Fed, defs, federation.Config{
		Nodes: nodes, MaxRestarts: 8,
		LeaseTTL: lease, HeartbeatEvery: heartbeat,
	})
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	start := time.Now()
	res := c.Run()
	elapsed := time.Since(start)
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			return nil, 0, fmt.Errorf("node %d: %w", i, nerr)
		}
	}
	recs, err := c.Stitched()
	if err != nil {
		return nil, 0, err
	}
	table, err := w.Fed.ConflictTable()
	if err != nil {
		return nil, 0, err
	}
	sched, err := fault.ScheduleFromWAL(table, defs, recs, len(recs))
	if err != nil {
		return nil, 0, err
	}
	ok, at, _, err := sched.PRED()
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("stitched schedule not prefix-reducible (prefix %d)", at)
	}
	if doubt := w.Fed.InDoubt(); len(doubt) > 0 {
		return nil, 0, fmt.Errorf("in-doubt transactions after run: %v", doubt)
	}
	return res, elapsed, nil
}

func runFedTortureCmd(first, seeds, one int64, asJSON bool) error {
	if one >= 0 {
		sc := federation.FedScenarioFor(one)
		fmt.Printf("seed %d: class=%s nodes=%d crash={node %d, %q, count %d} wire=%+v\n",
			sc.Seed, sc.Class, sc.Nodes, sc.CrashNode, sc.CrashPoint, sc.CrashCount, sc.Wire)
		alt, err := federation.RunFedScenario(sc)
		if err != nil {
			return err
		}
		fmt.Printf("scenario passed (alternatives fired: %v)\n", alt)
		return nil
	}
	progress, stop := seedTrap("tpsim fed -torture -fedseed=")
	sum := federation.RunFedTortureProgress(first, seeds, progress)
	stop()
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return err
		}
	} else {
		fmt.Printf("fed torture: %d scenarios (seeds %d..%d), alternatives fired in %d\n",
			sum.Scenarios, first, first+seeds-1, sum.AltFires)
		classes := make([]string, 0, len(sum.ByClass))
		for class := range sum.ByClass {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			fmt.Printf("  %-24s %d\n", class, sum.ByClass[class])
		}
		for _, f := range sum.Failures {
			fmt.Printf("  FAIL %s\n", f)
		}
	}
	if n := len(sum.Failures); n > 0 {
		return fmt.Errorf("%d of %d scenarios violated a recovery guarantee (reproduce with: tpsim fed -torture -fedseed=N)", n, sum.Scenarios)
	}
	return nil
}

func runHubTortureCmd(first, seeds, one int64, asJSON bool) error {
	if one >= 0 {
		sc := federation.HubScenarioFor(one)
		fmt.Printf("seed %d: class=%s nodes=%d hub={%q, count %d} crash={node %d, %q, count %d} lease=%s wire=%+v\n",
			sc.Seed, sc.Class, sc.Nodes, sc.HubPoint, sc.HubCount,
			sc.CrashNode, sc.CrashPoint, sc.CrashCount, sc.LeaseTTL, sc.Wire)
		st, err := federation.RunHubScenario(sc)
		if err != nil {
			return err
		}
		fmt.Printf("scenario passed: %d kills ridden out by %d reopens (%d adoptions, %d lease expiries, %d reattaches)\n",
			st.Kills, st.Reopens, st.Adoptions, st.LeaseExpiries, st.Reattached)
		return nil
	}
	progress, stop := seedTrap("tpsim fed -hubtorture -hubseed=")
	sum := federation.RunHubTortureProgress(first, seeds, progress)
	stop()
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return err
		}
	} else {
		fmt.Printf("hub torture: %d scenarios (seeds %d..%d): %d kills, %d reopens, %d adoptions, %d lease expiries, %d reattaches\n",
			sum.Scenarios, first, first+seeds-1, sum.Kills, sum.Reopens,
			sum.Adoptions, sum.LeaseExpiries, sum.Reattached)
		classes := make([]string, 0, len(sum.ByClass))
		for class := range sum.ByClass {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			fmt.Printf("  %-24s %d\n", class, sum.ByClass[class])
		}
		for _, f := range sum.Failures {
			fmt.Printf("  FAIL %s\n", f)
		}
	}
	if n := len(sum.Failures); n > 0 {
		return fmt.Errorf("%d of %d scenarios violated a recovery guarantee (reproduce with: tpsim fed -hubtorture -hubseed=N)", n, sum.Scenarios)
	}
	return nil
}

// fedBenchPoint is one row of BENCH_fed.json.
type fedBenchPoint struct {
	Nodes       int     `json:"nodes"`
	Processes   int     `json:"processes"`
	Reps        int     `json:"reps"`
	MeanMillis  float64 `json:"meanMillis"`
	ProcsPerSec float64 `json:"procsPerSec"`
}

// hubBenchPoint is one row of BENCH_fed_hub.json: hub-kill MTTR at one
// node count. MTTR spans the monitor's death detection, the journal +
// stitched-WAL reopen (recovery of every in-doubt transaction), and the
// rebind that lets nodes reattach; the workload rides through the
// outage, so TotalMillis also shows the end-to-end cost of the bounce.
type hubBenchPoint struct {
	Nodes          int     `json:"nodes"`
	Processes      int     `json:"processes"`
	Reps           int     `json:"reps"`
	Kills          int     `json:"kills"`
	MeanMTTRMillis float64 `json:"meanMTTRMillis"`
	MaxMTTRMillis  float64 `json:"maxMTTRMillis"`
	Reattached     int     `json:"reattached"`
	MeanRunMillis  float64 `json:"meanRunMillis"`
}

// runFedBenchHub sweeps node counts, arming one hub kill -9 per run in
// the dispatch window, and measures mean time to recovery: the span
// from the monitor detecting the dead hub to the reopened hub bound and
// accepting reattaches. Lease-based membership is on (the production
// configuration) so detection latency is part of the measurement.
func runFedBenchHub(procs int, seed int64, reps int, asJSON bool) error {
	var points []hubBenchPoint
	for _, nodes := range []int{2, 3, 4} {
		pt := hubBenchPoint{Nodes: nodes, Processes: procs, Reps: reps}
		var mttrTotal, runTotal time.Duration
		var maxMTTR time.Duration
		for r := 0; r < reps; r++ {
			mttr, elapsed, reattached, kills, err := fedHubBenchRun(procs, seed+int64(r), nodes)
			if err != nil {
				return fmt.Errorf("nodes=%d rep=%d: %w", nodes, r, err)
			}
			pt.Kills += kills
			pt.Reattached += reattached
			mttrTotal += mttr
			runTotal += elapsed
			if mttr > maxMTTR {
				maxMTTR = mttr
			}
		}
		if pt.Kills > 0 {
			pt.MeanMTTRMillis = float64(mttrTotal.Microseconds()) / 1000.0 / float64(pt.Kills)
		}
		pt.MaxMTTRMillis = float64(maxMTTR.Microseconds()) / 1000.0
		pt.MeanRunMillis = float64(runTotal.Microseconds()) / 1000.0 / float64(reps)
		points = append(points, pt)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(points)
	}
	fmt.Println("nodes  kills  meanMTTR(ms)  maxMTTR(ms)  reattached  run(ms)")
	for _, p := range points {
		fmt.Printf("%5d  %5d  %12.1f  %11.1f  %10d  %7.1f\n",
			p.Nodes, p.Kills, p.MeanMTTRMillis, p.MaxMTTRMillis, p.Reattached, p.MeanRunMillis)
	}
	return nil
}

// fedHubBenchRun is one MTTR sample: a federated workload with a hub
// kill armed mid-run, timed from OnHubDown to OnHubUp.
func fedHubBenchRun(procs int, seed int64, nodes int) (mttr, elapsed time.Duration, reattached, kills int, err error) {
	p := workload.DefaultProfile(seed)
	p.Processes = procs
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.05
	w, err := workload.Generate(p)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defs := make([]*process.Process, 0, len(w.Jobs))
	for _, j := range w.Jobs {
		defs = append(defs, j.Proc)
	}
	var mu sync.Mutex
	var down time.Time
	var downtime time.Duration
	c, err := federation.NewCluster(w.Fed, defs, federation.Config{
		Nodes: nodes, MaxRestarts: 8,
		LeaseTTL: 200 * time.Millisecond, HeartbeatEvery: 20 * time.Millisecond,
		HubKill: federation.CrashSpec{Point: fault.PointHubDispatch, Count: 3},
		OnHubDown: func() {
			mu.Lock()
			down = time.Now()
			mu.Unlock()
		},
		OnHubUp: func() {
			mu.Lock()
			if !down.IsZero() {
				downtime += time.Since(down)
				down = time.Time{}
			}
			mu.Unlock()
		},
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer c.Close()
	start := time.Now()
	res := c.Run()
	elapsed = time.Since(start)
	if res.HubErr != nil {
		return 0, 0, 0, 0, fmt.Errorf("hub reopen: %w", res.HubErr)
	}
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			return 0, 0, 0, 0, fmt.Errorf("node %d: %w", i, nerr)
		}
	}
	mu.Lock()
	mttr = downtime
	mu.Unlock()
	return mttr, elapsed, res.Reattached, res.HubRestarts, nil
}

func runFedBench(procs int, seed int64, reps int, asJSON bool) error {
	var points []fedBenchPoint
	for _, nodes := range []int{1, 2, 4} {
		var total time.Duration
		for r := 0; r < reps; r++ {
			_, elapsed, err := fedRun(procs, seed+int64(r), nodes)
			if err != nil {
				return fmt.Errorf("nodes=%d rep=%d: %w", nodes, r, err)
			}
			total += elapsed
		}
		mean := total / time.Duration(reps)
		points = append(points, fedBenchPoint{
			Nodes: nodes, Processes: procs, Reps: reps,
			MeanMillis:  float64(mean.Microseconds()) / 1000.0,
			ProcsPerSec: float64(procs) / mean.Seconds(),
		})
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(points)
	}
	fmt.Println("nodes  mean(ms)  procs/sec")
	for _, p := range points {
		fmt.Printf("%5d  %8.1f  %9.1f\n", p.Nodes, p.MeanMillis, p.ProcsPerSec)
	}
	return nil
}
