package main

import (
	"context"
	"fmt"
	"math/rand"
	gort "runtime"
	"runtime/metrics"
	"time"

	"transproc/internal/fault"
	"transproc/internal/federation"
	tpmetrics "transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/runtime"
	"transproc/internal/scheduler"
	"transproc/internal/scheduler/policy"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// Burst workloads: every process arrives at t=0. One unit is one
// engine (or cluster) over a fresh copy of the world running one batch
// of generated processes to completion; a phase repeats units until
// their timed runs add up to the measuring time.
//
// worldSeed fixes the subsystem federation (services, their conflict
// relation, costs and failure rates): it plays the deployment, and
// --seed draws only the process mixes that arrive at it. Across
// generated worlds the run time of the same 384-process burst varies
// about tenfold with the size of the largest conflict component, which
// no feasible number of units per run averages out; over one world it
// varies by about ±10%. World 1 is the generator's first seed, not a
// chosen one; its bursts run slower than the median world's.
const worldSeed = 1

// runtimeProfile is runtime-burst's generator profile:
// workload.DefaultProfile (5% permanent and 10% transient failures,
// so backward recovery and deferred 2PC run) with ConflictProb 0.3.
func runtimeProfile(seed int64) workload.Profile {
	p := workload.DefaultProfile(seed)
	p.Processes = 384
	p.ConflictProb = 0.3
	return p
}

// fedProfile is the `tpsim fed -bench` profile at 96 processes.
func fedProfile(seed int64) workload.Profile {
	p := workload.DefaultProfile(seed)
	p.Processes = 96
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.05
	return p
}

// burstInputs builds a fresh copy of the world and the process mix
// drawn by jobSeed. Process definitions name services only; the
// generator names them by subsystem, kind and index, so a mix drawn for
// one seed runs on the world of another.
func burstInputs(profile func(int64) workload.Profile, jobSeed int64) (*workload.Workload, []scheduler.Job, error) {
	world, err := workload.Generate(profile(worldSeed))
	if err != nil {
		return nil, nil, err
	}
	mix, err := workload.Generate(profile(jobSeed))
	if err != nil {
		return nil, nil, err
	}
	return world, mix.Jobs, nil
}

// unitStats is what one unit measured.
type unitStats struct {
	attempted, settled int
	setup, wall, cpu   time.Duration
	allocB, liveB      float64
	admit, settle      []float64 // ms since the run started, per settled origin
	root               int       // root span id (traced runs)
}

// phase is one measuring window of a workload.
type phase struct {
	traced bool
	units  []unitStats
	reg    *tpmetrics.Registry // nil when untraced
	tr     *tracer
	// Traced phases only, summed over the timed windows: CPU profile
	// attribution and the runtime's CPU-class and allocation deltas.
	cpuAttr cpuAttribution
	goCPU   goCPU
	// serve-open only: the generator's worst lateness and the shed
	// submissions.
	genLateMaxMS float64
	shed         int
}

func newPhase(traced bool) *phase {
	ph := &phase{traced: traced, tr: newTracer(traced)}
	if traced {
		ph.reg = tpmetrics.New()
	}
	return ph
}

func (p *phase) settled() int {
	n := 0
	for _, u := range p.units {
		n += u.settled
	}
	return n
}

// cpuPerProc is timed-window CPU milliseconds per settled process.
func (p *phase) cpuPerProc() float64 {
	var cpu time.Duration
	for _, u := range p.units {
		cpu += u.cpu
	}
	return ratio(ms(cpu), float64(p.settled()))
}

type unitFunc func(jobSeed int64, ph *phase, clock *procClock, rep *report) (unitStats, error)

// burstPhase runs units for the given measuring time. Units draw their
// job seeds from seed, so two phases of one run see the same inputs.
func burstPhase(seed int64, seconds float64, traced bool, unit unitFunc, rep *report) (*phase, error) {
	ph := newPhase(traced)
	clock := newProcClock()
	rng := rand.New(rand.NewSource(seed))
	var measured time.Duration
	for measured.Seconds() < seconds {
		u, err := unit(rng.Int63(), ph, clock, rep)
		if err != nil {
			return nil, err
		}
		ph.units = append(ph.units, u)
		measured += u.wall
	}
	return ph, nil
}

// measure times one unit's call. It collects garbage first, so one
// unit's garbage does not bill the next, then reads the call's wall
// time, CPU time and heap allocation. In a traced phase it also
// profiles the call: the profile covers timed windows only, never the
// output checks.
func (p *phase) measure(u *unitStats, fn func()) error {
	gort.GC()
	var prof *cpuProfile
	if p.traced {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	g0, c0 := readGoCPU(), cpuTime()
	start := time.Now()
	fn()
	u.wall = time.Since(start)
	u.cpu = cpuTime() - c0
	g1 := readGoCPU()
	u.allocB = g1.allocBytes - g0.allocBytes
	if prof == nil {
		return nil
	}
	attr, err := prof.stop()
	if err != nil {
		return err
	}
	p.cpuAttr.add(attr)
	p.goCPU.add(g0, g1)
	return nil
}

// liveHeap forces a collection and returns the live heap in bytes; the
// caller keeps the engine referenced across the call.
func liveHeap() float64 {
	gort.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

func runtimeUnit(jobSeed int64, ph *phase, clock *procClock, rep *report) (unitStats, error) {
	var u unitStats
	tr := ph.tr
	world, jobs, err := burstInputs(runtimeProfile, jobSeed)
	if err != nil {
		return u, err
	}
	u.attempted = len(jobs)
	log := wrapWAL(wal.NewMemLog(), spanWALAppend, spanWALSync, tr, clock)
	cfg := runtime.Config{Mode: scheduler.PRED, Workers: 4, Log: log, Metrics: ph.reg}
	if tr.on {
		cfg.Resilience = &invokerSeam{fed: world.Fed, tr: tr}
	}
	var rt *runtime.Runtime
	u.setup, err = medianSetup(func() (err error) {
		rt, err = runtime.New(world.Fed, cfg)
		return err
	}, nil)
	if err != nil {
		return u, fmt.Errorf("runtime.New: %w", err)
	}
	clock.reset()
	var res *runtime.Result
	var runErr error
	err = ph.measure(&u, func() {
		var closeSpan func()
		u.root, closeSpan = tr.root(spanRuntimeRun, fmt.Sprintf("burst-%d", jobSeed))
		res, runErr = rt.Run(context.Background(), jobs)
		closeSpan()
	})
	if err != nil {
		return u, err
	}
	u.liveB = liveHeap()
	gort.KeepAlive(rt)
	label := fmt.Sprintf("runtime-burst job seed %d", jobSeed)
	if runErr != nil {
		rep.problem("%s: Run: %v", label, runErr)
		return u, nil
	}
	recs, err := log.Records()
	if err != nil {
		return u, err
	}
	u.settled = checkLog(rep, label, recs, jobOrigins(jobs))
	checkSchedule(rep, label, res.Schedule)
	if doubt := world.Fed.InDoubt(); len(doubt) > 0 {
		rep.problem("%s: in-doubt transactions after the run: %v", label, doubt)
	}
	u.admit, u.settle = clock.latencies()
	return u, nil
}

func fedUnit(jobSeed int64, ph *phase, clock *procClock, rep *report) (unitStats, error) {
	var u unitStats
	tr := ph.tr
	world, jobs, err := burstInputs(fedProfile, jobSeed)
	if err != nil {
		return u, err
	}
	u.attempted = len(jobs)
	defs := make([]*process.Process, len(jobs))
	for i, j := range jobs {
		defs[i] = j.Proc
	}
	var c *federation.Cluster
	u.setup, err = medianSetup(func() (err error) {
		c, err = federation.NewCluster(world.Fed, defs, federation.Config{
			Nodes: 2, Mode: policy.PRED, MaxRestarts: 8, Metrics: ph.reg,
			HubJournal: &journalSeam{inner: federation.NewMemJournal(), tr: tr},
			NodeWAL: func(int) wal.Log {
				return wrapWAL(wal.NewMemLog(), spanNodeWALAppend, spanNodeWALSync, tr, clock)
			},
		})
		return err
	}, func() { c.Close() })
	if err != nil {
		return u, fmt.Errorf("federation.NewCluster: %w", err)
	}
	defer c.Close()
	clock.reset()
	var res *federation.RunResult
	err = ph.measure(&u, func() {
		var closeSpan func()
		u.root, closeSpan = tr.root(spanClusterRun, fmt.Sprintf("cluster-%d", jobSeed))
		res = c.Run()
		closeSpan()
	})
	if err != nil {
		return u, err
	}
	u.liveB = liveHeap()
	label := fmt.Sprintf("fed-2node job seed %d", jobSeed)
	nodeErr := false
	for i, err := range res.NodeErrs {
		if err != nil {
			rep.problem("%s: node %d: %v", label, i, err)
			nodeErr = true
		}
	}
	if nodeErr {
		return u, nil
	}
	recs, err := c.Stitched()
	if err != nil {
		return u, err
	}
	u.settled = checkLog(rep, label, recs, jobOrigins(jobs))
	table, err := world.Fed.ConflictTable()
	if err != nil {
		return u, err
	}
	sched, err := fault.ScheduleFromWAL(table, defs, recs, len(recs))
	if err != nil {
		rep.problem("%s: stitched schedule: %v", label, err)
	} else {
		checkSchedule(rep, label, sched)
	}
	if doubt := world.Fed.InDoubt(); len(doubt) > 0 {
		rep.problem("%s: in-doubt transactions after the run: %v", label, doubt)
	}
	u.admit, u.settle = clock.latencies()
	return u, nil
}

// setupRepeats is how many times a unit sets up its engine; setup_s
// is the median, and only the last engine runs.
const setupRepeats = 5

// medianSetup times setup setupRepeats times, discarding all but the
// last result through discard, and returns the median duration.
func medianSetup(setup func() error, discard func()) (time.Duration, error) {
	gort.GC() // the previous unit's garbage does not bill this set-up
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && discard != nil {
			discard()
		}
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

func jobOrigins(jobs []scheduler.Job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = string(j.Proc.ID)
	}
	return out
}

func runRuntimeBurst(o options, rep *report) error { return runBurst(o, rep, runtimeUnit) }

func runFed2Node(o options, rep *report) error { return runBurst(o, rep, fedUnit) }

// burstProcs is the GOMAXPROCS of a burst run. Both burst workloads
// are CPU-bound in one serial section (the policy state of the
// runtime's largest conflict group, behind that group's mutex; the
// hub's policy section, reached through lock-step RPCs over localhost
// TCP), so they keep about one CPU busy whatever
// the setting: with two Ps on the 2-CPU reference host runtime-burst
// used 1.25 CPUs at the same rate, fed-2node 1.1 CPUs at a 15-25%
// higher rate. With two Ps most hand-offs wake the other, often idle,
// CPU, and the run time follows the host's contention rather than the
// program: a 30% load on each CPU cut the rate by 20-26% with two Ps
// and left it unchanged with one, and hypervisor steal of 0.3 CPUs cut
// fed-2node's rate by 29%. README.md gives what one P changes in the
// runtime's interleavings.
const burstProcs = 1

// runBurst is the timed run (end-to-end metrics) or, with --trace 1,
// an untraced half followed by a traced half over the same inputs.
func runBurst(o options, rep *report, unit unitFunc) error {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(burstProcs))
	if !o.trace {
		ph, err := burstPhase(o.seed, o.seconds, false, unit, rep)
		if err != nil {
			return err
		}
		countUnits(rep, ph)
		endToEnd(rep, ph)
		return nil
	}
	base, err := burstPhase(o.seed, o.seconds/2, false, unit, rep)
	if err != nil {
		return err
	}
	ph, err := burstPhase(o.seed, o.seconds/2, true, unit, rep)
	if err != nil {
		return err
	}
	countUnits(rep, base)
	countUnits(rep, ph)
	burstLatencies(base).report(rep)
	return perLayer(rep, o, ph, base)
}

func countUnits(rep *report, ph *phase) {
	for _, u := range ph.units {
		rep.attempted += u.attempted
		rep.failed += u.attempted - u.settled
	}
}

// endToEnd sets the end-to-end metrics of a burst phase, each the
// median over units of that unit's value.
func endToEnd(rep *report, ph *phase) {
	var setup, rate, cpu, alloc, live []float64
	for _, u := range ph.units {
		setup = append(setup, u.setup.Seconds())
		n := float64(u.settled)
		if n == 0 {
			continue
		}
		rate = append(rate, n/u.wall.Seconds())
		cpu = append(cpu, ms(u.cpu)/n)
		alloc = append(alloc, u.allocB/1e6/n*1000)
		live = append(live, u.liveB/1e6)
	}
	rep.set("setup_s", "s", median(setup))
	rep.set("procs_per_s", "1/s", median(rate))
	rep.set("cpu_ms_per_proc", "ms", median(cpu))
	rep.set("alloc_mb_per_kproc", "MB", median(alloc))
	rep.set("retained_mb", "MB", median(live))
}

// latencyFigures are the per-process latency percentiles and the
// capacity of a workload. They are end-to-end figures, but on this
// benchmark's reference host they spread too widely between runs to
// carry a regression bound (README.md gives the measured spreads), so
// the traced run reports them, from its untraced half, with the
// per-layer metrics.
type latencyFigures struct {
	admit50, admit99, settle50, settle99, maxRate float64
}

func (l latencyFigures) report(rep *report) {
	rep.set("e2e.admit_p50_ms", "ms", l.admit50)
	rep.set("e2e.admit_p99_ms", "ms", l.admit99)
	rep.set("e2e.settle_p50_ms", "ms", l.settle50)
	rep.set("e2e.settle_p99_ms", "ms", l.settle99)
	rep.set("e2e.max_rate_rps", "1/s", l.maxRate)
}

// burstLatencies takes each figure as the median over units of the
// unit's own value: a unit's admit and settle times run from its
// burst's start, and a burst has no offered rate to raise, so its
// capacity is its drain rate.
func burstLatencies(ph *phase) latencyFigures {
	var a50, a99, s50, s99, rate []float64
	for _, u := range ph.units {
		if u.settled == 0 {
			continue
		}
		rate = append(rate, float64(u.settled)/u.wall.Seconds())
		admit, settle := sortedCopy(u.admit), sortedCopy(u.settle)
		a50 = append(a50, quantile(admit, 0.50))
		a99 = append(a99, quantile(admit, 0.99))
		s50 = append(s50, quantile(settle, 0.50))
		s99 = append(s99, quantile(settle, 0.99))
	}
	return latencyFigures{admit50: median(a50), admit99: median(a99), settle50: median(s50), settle99: median(s99), maxRate: median(rate)}
}
