package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"transproc/internal/serve"
	"transproc/internal/spec"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// runServe implements "tpsim serve": the long-running ingestion service
// and its two seeded harnesses.
//
//	tpsim serve [-addr :8080] [-dir serve-data] [-world spec.json]
//	            [-fed N] [-lease D] [-heartbeat D]
//	            [-queue N] [-batch N] [-tick D] [-drain D] [-ckpt N]
//	            [-compact] [-nosync] [-rate R] [-burst B] [-retries N]
//	tpsim serve -torture [-seeds N] [-first S] [-seed K] [-json]
//	tpsim serve -bench [-clients 1,4,16] [-dur D] [-json]
//
// The default form opens (or re-opens, recovering) the data directory,
// builds the subsystem federation from -world (a spec file whose
// "subsystems" section declares the services; its "processes" section
// is ignored — processes arrive over HTTP) or from a built-in demo
// world, and serves the ingestion API until SIGINT/SIGTERM triggers a
// graceful drain. -fed N routes batches through an N-node federation
// cluster instead of the in-process runtime.
//
// -torture runs the serve crash battery (internal/serve): seeded
// kill -9 scenarios over real HTTP, each judged by fault.CheckRecovered
// after restart; interrupting the run prints the in-flight reproducing
// seed. -bench runs the saturation load harness behind BENCH_serve.json.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dir := fs.String("dir", "serve-data", "data directory (wal.log + intake.journal)")
	world := fs.String("world", "", "spec file declaring the subsystem federation (default: built-in demo world)")
	fed := fs.Int("fed", 0, "route batches through an N-node federation cluster (0 = in-process runtime)")
	lease := fs.Duration("lease", 0, "federation: lease TTL for hub membership (0 = explicit death reports; /readyz degrades while the hub is unreachable)")
	heartbeat := fs.Duration("heartbeat", 0, "federation: node heartbeat interval (default lease/4 when -lease is set)")
	queue := fs.Int("queue", 64, "admission queue depth (shed with 429 beyond it)")
	batch := fs.Int("batch", 8, "max submissions per runner micro-batch")
	tick := fs.Duration("tick", 0, "real duration of one virtual service cost unit")
	drain := fs.Duration("drain", 10*time.Second, "graceful-drain deadline before parking queued work")
	ckpt := fs.Int("ckpt", 0, "fuzzy WAL checkpoint every N force-log appends (0 = only at drain)")
	compact := fs.Bool("compact", false, "compact the WAL after each checkpoint")
	nosync := fs.Bool("nosync", false, "disable per-append WAL fsync (testing only)")
	rate := fs.Float64("rate", 0, "per-tenant sustained admission rate (submissions/sec; 0 = unlimited)")
	burst := fs.Int("burst", 0, "per-tenant token-bucket burst (default 8 when -rate is set)")
	retries := fs.Int("retries", 0, "per-tenant retry budget for restarts and re-runs (default 64)")
	torture := fs.Bool("torture", false, "run the serve crash-torture battery")
	seeds := fs.Int64("seeds", 200, "torture: number of seeds")
	first := fs.Int64("first", 0, "torture: first seed")
	one := fs.Int64("seed", -1, "torture: run only this seed (verbose reproduction)")
	bench := fs.Bool("bench", false, "run the saturation load harness (BENCH_serve.json)")
	clients := fs.String("clients", "1,4,16", "bench: comma-separated client counts")
	dur := fs.Duration("dur", 2*time.Second, "bench: load duration per client count")
	asJSON := fs.Bool("json", false, "emit results as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *torture {
		return runServeTorture(*first, *seeds, *one, *asJSON)
	}
	if *bench {
		return runServeBench(*clients, *dur, *asJSON)
	}

	fedr, err := serveWorldFromFlag(*world)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	if *lease > 0 && *heartbeat <= 0 {
		*heartbeat = *lease / 4
	}
	cfg := serve.Config{
		Dir: *dir, FedNodes: *fed,
		FedLeaseTTL: *lease, FedHeartbeat: *heartbeat,
		QueueDepth: *queue, BatchMax: *batch, Tick: *tick,
		DrainTimeout: *drain, CheckpointEvery: *ckpt,
		CompactOnCheckpoint: *compact, NoSync: *nosync,
		Tenant: serve.TenantConfig{Rate: *rate, Burst: *burst, RetryBudget: *retries},
	}
	s, err := serve.Open(fedr, cfg)
	if err != nil {
		return err
	}
	if rep := s.RecoveryReport(); rep != nil {
		fresh, reruns := s.Resumed()
		fmt.Printf("serve: recovered %s: %d parked submissions resumed, %d crash-interrupted re-run\n",
			*dir, fresh, reruns)
	}
	bound, err := s.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("serve: listening on %s (dir=%s queue=%d batch=%d", bound, *dir, *queue, *batch)
	if *fed > 0 {
		fmt.Printf(" fed=%d nodes", *fed)
	}
	fmt.Println(")")
	fmt.Printf("serve: try: curl -s localhost%s/healthz\n", portOf(bound))

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("serve: %v: draining (deadline %s; second signal force-quits)\n", got, *drain)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "serve: force quit")
		os.Exit(1)
	}()
	rep, err := s.Drain(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("serve: drained in %s: %d finished, %d parked for restart\n",
		rep.Elapsed.Round(time.Millisecond), rep.Finished, rep.Parked)
	return nil
}

// portOf extracts ":port" from a bound address for the quickstart line.
func portOf(addr string) string {
	if i := bytes.LastIndexByte([]byte(addr), ':'); i >= 0 {
		return addr[i:]
	}
	return addr
}

// serveWorldFromFlag builds the server's subsystem federation: from the
// subsystems section of a spec file, or the built-in demo world (a
// compensatable booking, a pivot charge and retriable confirmations
// across two subsystems — the world of the README quickstart).
func serveWorldFromFlag(path string) (*subsystem.Federation, error) {
	if path == "" {
		return spec.BuildFederation([]spec.SubsystemSpec{
			{Name: "hotel", Seed: 1, Services: []spec.ServiceSpec{
				{Name: "book", Kind: "compensatable", Writes: []string{"rooms"}, Cost: 1},
				{Name: "confirm", Kind: "retriable", Writes: []string{"mail"}, Cost: 1},
			}},
			{Name: "pay", Seed: 2, Services: []spec.ServiceSpec{
				{Name: "charge", Kind: "pivot", Writes: []string{"ledger"}, Cost: 1},
				{Name: "refund", Kind: "retriable", Writes: []string{"ledger"}, Cost: 1},
			}},
		})
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := spec.Parse(data)
	if err != nil {
		return nil, err
	}
	return spec.BuildFederation(f.Subsystems)
}

func runServeTorture(first, seeds, one int64, asJSON bool) error {
	root, err := os.MkdirTemp("", "tpsim-serve-torture")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	if one >= 0 {
		sc := serve.ScenarioFor(one)
		fmt.Printf("seed %d: class=%s procs=%d tenants=%d ckptEvery=%d compact=%v group=%+v plan=%+v rerunBudget=%d\n",
			sc.Seed, sc.Class, sc.Procs, sc.Tenants, sc.CheckpointEvery,
			sc.CompactOnCheckpoint, sc.GroupCommit, sc.Plan, sc.RerunBudget)
		if err := serve.RunScenario(sc, filepath.Join(root, "seed")); err != nil {
			return err
		}
		fmt.Println("scenario passed: all recovery guarantees hold")
		return nil
	}

	progress, stop := seedTrap("tpsim serve -torture -seed=")
	sum := serve.RunBattery(first, seeds, func(seed int64) string {
		return filepath.Join(root, fmt.Sprintf("s%d", seed))
	}, progress)
	stop()
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return err
		}
	} else {
		fmt.Printf("serve torture: %d scenarios (seeds %d..%d)\n",
			sum.Scenarios, first, first+seeds-1)
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
		return fmt.Errorf("%d of %d scenarios violated a recovery guarantee (reproduce with: tpsim serve -torture -seed=N)", n, sum.Scenarios)
	}
	return nil
}

// serveBenchPoint is one row of BENCH_serve.json: a closed-loop load
// run at a fixed client count against a deliberately small admission
// window (queue 8, in-flight window 4, 200µs service ticks), so the
// 16-client point saturates and the shed rate is a real measurement.
type serveBenchPoint struct {
	Clients        int     `json:"clients"`
	Accepted       int     `json:"accepted"`
	Shed           int     `json:"shed"`
	ReqPerSec      float64 `json:"reqPerSec"`
	P50AdmitMicros float64 `json:"p50AdmitMicros"`
	P99AdmitMicros float64 `json:"p99AdmitMicros"`
	ShedRate       float64 `json:"shedRate"`
}

// serveBenchResult is the committed BENCH_serve.json document.
type serveBenchResult struct {
	Benchmark  string            `json:"benchmark"`
	QueueDepth int               `json:"queueDepth"`
	BatchMax   int               `json:"batchMax"`
	TickMicros int               `json:"tickMicros"`
	DurMillis  int64             `json:"durMillis"`
	Results    []serveBenchPoint `json:"results"`
}

func runServeBench(clientList string, dur time.Duration, asJSON bool) error {
	var counts []int
	for _, f := range bytes.Split([]byte(clientList), []byte(",")) {
		var n int
		if _, err := fmt.Sscanf(string(bytes.TrimSpace(f)), "%d", &n); err != nil || n <= 0 {
			return fmt.Errorf("bad -clients value %q", clientList)
		}
		counts = append(counts, n)
	}
	const (
		queueDepth = 8
		batchMax   = 4
		tick       = 200 * time.Microsecond
	)
	out := serveBenchResult{
		Benchmark: "serve-load", QueueDepth: queueDepth, BatchMax: batchMax,
		TickMicros: int(tick / time.Microsecond), DurMillis: dur.Milliseconds(),
	}
	for _, c := range counts {
		pt, err := serveBenchRun(c, queueDepth, batchMax, tick, dur)
		if err != nil {
			return fmt.Errorf("clients=%d: %w", c, err)
		}
		out.Results = append(out.Results, pt)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Println("clients  req/sec  p50(µs)  p99(µs)  shed%")
	for _, p := range out.Results {
		fmt.Printf("%7d  %7.0f  %7.0f  %7.0f  %5.1f\n",
			p.Clients, p.ReqPerSec, p.P50AdmitMicros, p.P99AdmitMicros, 100*p.ShedRate)
	}
	return nil
}

// serveBenchRun drives one closed-loop load point: c clients each
// submitting a 3-activity booking process over real HTTP and waiting
// for it to settle before the next, measuring client-observed admission
// latency (POST to 202) and the 429 shed rate. The loop is closed on
// completion, so shedding is a pure function of concurrency vs the
// admission window: one client never sheds, sixteen against a queue of
// eight must. Group commit (batch 16) keeps the force-log discipline
// honest without paying one fsync per record.
func serveBenchRun(c, queueDepth, batchMax int, tick, dur time.Duration) (serveBenchPoint, error) {
	var pt serveBenchPoint
	dir, err := os.MkdirTemp("", "tpsim-serve-bench")
	if err != nil {
		return pt, err
	}
	defer os.RemoveAll(dir)
	fedr, err := serveWorldFromFlag("")
	if err != nil {
		return pt, err
	}
	s, err := serve.Open(fedr, serve.Config{
		Dir: dir, QueueDepth: queueDepth, BatchMax: batchMax, Tick: tick,
		BatchWait:   500 * time.Microsecond,
		GroupCommit: wal.GroupCommit{MaxBatch: 16},
	})
	if err != nil {
		return pt, err
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		return pt, err
	}
	url := "http://" + addr + "/v1/processes"

	var (
		mu        sync.Mutex
		latencies []time.Duration
		accepted  int
		shed      int
	)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < c; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			httpc := &http.Client{Timeout: 5 * time.Second}
			for n := 0; time.Now().Before(deadline); n++ {
				body, _ := json.Marshal(serve.SubmitRequest{
					Tenant: "bench",
					Proc: spec.ProcessSpec{
						ID: fmt.Sprintf("c%d-n%d", client, n),
						Activities: []spec.ActivitySpec{
							{Local: 1, Service: "book"},
							{Local: 2, Service: "charge"},
							{Local: 3, Service: "confirm"},
						},
						Seq: [][2]int{{1, 2}, {2, 3}},
					},
				})
				t0 := time.Now()
				resp, err := httpc.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				lat := time.Since(t0)
				var ack serve.SubmitResponse
				json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusAccepted:
					accepted++
					latencies = append(latencies, lat)
				case http.StatusTooManyRequests:
					shed++
				}
				mu.Unlock()
				if resp.StatusCode != http.StatusAccepted {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				// Close the loop on completion: poll until terminal.
				for time.Now().Before(deadline) {
					st, err := httpc.Get("http://" + addr + ack.Status)
					if err != nil {
						return
					}
					var status serve.Status
					json.NewDecoder(st.Body).Decode(&status)
					st.Body.Close()
					if status.Final {
						break
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(i)
	}
	wg.Wait()
	s.WaitIdle(30 * time.Second)
	if _, err := s.Drain(context.Background()); err != nil {
		return pt, err
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	quantile := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(q * float64(len(latencies)-1))
		return float64(latencies[i].Nanoseconds()) / 1e3
	}
	pt = serveBenchPoint{
		Clients: c, Accepted: accepted, Shed: shed,
		ReqPerSec:      float64(accepted) / dur.Seconds(),
		P50AdmitMicros: quantile(0.50),
		P99AdmitMicros: quantile(0.99),
	}
	if accepted+shed > 0 {
		pt.ShedRate = float64(shed) / float64(accepted+shed)
	}
	return pt, nil
}
