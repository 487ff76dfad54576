package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	gort "runtime"
	"sort"
	"sync"
	"time"

	"transproc/internal/fault"
	"transproc/internal/process"
	"transproc/internal/serve"
	"transproc/internal/spec"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// serve-open: an open-loop generator against the ingestion service
// with `tpsim serve`'s defaults (queue 64, batch 8, WAL and intake
// journal force-logged per append, no group commit), Tick 200µs and
// the built-in demo world. Every submission is the book→charge→confirm
// process with a unique idempotency key. Arrivals are Poisson at a
// fixed offered rate, drawn from --seed; each request is timed from
// the moment it was due, so a stall is charged to every request it
// delays.
const (
	serveTick   = 200 * time.Microsecond
	serveTenant = "bench"
	// refRate is the reference offered rate (submissions/s) of the
	// admit/settle latency metrics, below saturation.
	refRate = 100.0
	// settleLimitMS is the latency limit of max_rate_rps: a ladder
	// step passes when its settle p99 stays within it, that is when at
	// most missLimit of its requests were shed, failed, never final or
	// settled later than the limit. max_rate_rps interpolates linearly
	// in that miss share between the last passing and the first
	// failing step, so a step near the limit moves the figure a little
	// instead of a whole step.
	settleLimitMS = 250.0
	missLimit     = 0.01
	// refWindows split the reference rate's share of the measuring
	// time; refShare is that share, the ladder gets the rest.
	refWindows = 10
	refShare   = 0.5
	// pollEvery is the settle-observation interval, well below the
	// settle p50 (the SSE stream ticks every 25 ms and is not used).
	pollEvery = time.Millisecond
	// setupSamples is how many extra servers a run opens only to time
	// set-up. One set-up takes 1-16 ms, mostly the data directory's
	// fsyncs, so setup_s is a median over many.
	setupSamples = 29
)

// ladder is the fixed sequence of offered rates max_rate_rps climbs.
var ladder = []float64{200, 300, 400, 500, 650, 800}

// demoWorld is `tpsim serve`'s built-in world.
func demoWorld() (*subsystem.Federation, error) {
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

// server is one running service instance behind the benchmark's own
// http.Server (which lets the handler seam time each POST).
type server struct {
	s    *serve.Server
	fed  *subsystem.Federation
	hs   *http.Server
	url  string
	dir  string
	done chan struct{}
}

// openServer opens a service in a fresh data directory and waits until
// /readyz answers; the returned duration is the set-up time.
func openServer(dir string, tr *tracer) (*server, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	fed, err := demoWorld()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	s, err := serve.Open(fed, serve.Config{
		Dir: dir, Tick: serveTick,
		WrapLog: func(l wal.Log) wal.Log { return wrapWAL(l, spanServeWALAppend, spanServeWALSync, tr, nil) },
	})
	if err != nil {
		return nil, 0, fmt.Errorf("serve.Open: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, 0, err
	}
	srv := &server{s: s, fed: fed, dir: dir, url: "http://" + ln.Addr().String(), done: make(chan struct{}),
		hs: &http.Server{Handler: handlerSeam(s.Handler(), tr)}}
	go func() {
		defer close(srv.done)
		srv.hs.Serve(ln)
	}()
	for i := 0; ; i++ {
		resp, err := http.Get(srv.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if i == 1000 {
			srv.close()
			return nil, 0, errors.New("server never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	return srv, time.Since(start), nil
}

// close drains the service, stops the HTTP server, waits for it and
// removes the data directory.
func (srv *server) close() error {
	_, err := srv.s.Drain(context.Background())
	srv.hs.Close()
	<-srv.done
	if rmErr := os.RemoveAll(srv.dir); err == nil {
		err = rmErr
	}
	return err
}

// stepResult is one open-loop window at a fixed offered rate.
type stepResult struct {
	window               time.Duration
	sent, accepted, shed int
	settled              int
	admitMS, settleMS    []float64 // per accepted request, from its due time
	overLimit            int       // shed, failed or never-final requests
	lateMaxMS            float64
	cpu                  time.Duration
	allocB               float64
	ids                  []string // accepted submission ids
}

// missShare is the share of the window's requests that missed the
// latency limit, counting every request that did not settle.
func (st *stepResult) missShare() float64 {
	return ratio(float64(st.overLimit), float64(st.sent))
}

// settleP99 is the window's settle p99 with every request that did not
// settle counted as over any limit.
func (st *stepResult) settleP99() float64 {
	xs := append([]float64(nil), st.settleMS...)
	for i := 0; i < st.sent-len(st.settleMS); i++ {
		xs = append(xs, math.Inf(1))
	}
	sort.Float64s(xs)
	return quantile(xs, 0.99)
}

// generator drives open-loop windows against one server.
type generator struct {
	srv    *server
	rng    *rand.Rand
	client *http.Client
	conns  int
	next   int // submission counter (unique ids and keys)
}

func newGenerator(srv *server, seed int64) *generator {
	conns := gort.NumCPU()
	return &generator{
		srv:   srv,
		rng:   rand.New(rand.NewSource(seed)),
		conns: conns,
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
	}
}

func (g *generator) body(n int) []byte {
	b, _ := json.Marshal(serve.SubmitRequest{
		Tenant: serveTenant,
		Key:    fmt.Sprintf("k%d", n),
		Proc: spec.ProcessSpec{
			ID: fmt.Sprintf("p%d", n),
			Activities: []spec.ActivitySpec{
				{Local: 1, Service: "book"},
				{Local: 2, Service: "charge"},
				{Local: 3, Service: "confirm"},
			},
			Seq: [][2]int{{1, 2}, {2, 3}},
		},
	})
	return b
}

type request struct {
	id   string
	body []byte
	at   time.Duration // due offset from the window's start
	due  time.Time
}

type sent struct {
	req      request
	accepted bool
	status   int
	admitMS  float64
	lateMS   float64
}

// window offers Poisson arrivals at rate for dur, then waits (outside
// the window, up to a deadline) for every accepted request to settle.
// CPU time and allocation cover the sending window and the settling
// of its requests.
func (g *generator) window(rate float64, dur time.Duration, ph *phase) (*stepResult, error) {
	// Inputs first: the arrival offsets and request bodies.
	var reqs []request
	for t := g.rng.ExpFloat64() / rate; t < dur.Seconds(); t += g.rng.ExpFloat64() / rate {
		g.next++
		reqs = append(reqs, request{id: fmt.Sprintf("%s/p%d", serveTenant, g.next), body: g.body(g.next),
			at: time.Duration(t * float64(time.Second))})
	}
	st := &stepResult{sent: len(reqs)}
	var u unitStats
	var sends []sent
	var settleMS []float64
	if err := ph.measure(&u, func() { sends, settleMS = g.run(reqs) }); err != nil {
		return nil, err
	}
	st.window, st.cpu, st.allocB = dur, u.cpu, u.allocB
	for _, s := range sends {
		st.lateMaxMS = math.Max(st.lateMaxMS, s.lateMS)
		switch {
		case s.accepted:
			st.accepted++
			st.admitMS = append(st.admitMS, s.admitMS)
			st.ids = append(st.ids, s.req.id)
		case s.status == http.StatusTooManyRequests:
			st.shed++
		}
	}
	st.settleMS = settleMS
	st.settled = len(settleMS)
	st.overLimit = st.sent - st.settled
	for _, x := range settleMS {
		if x > settleLimitMS {
			st.overLimit++
		}
	}
	return st, nil
}

// settleDeadline bounds how long an accepted request may take to
// settle before it counts as never final.
const settleDeadline = 20 * time.Second

// run sends reqs at their due offsets from now over at most conns
// connections and polls the accepted ones until they settle.
func (g *generator) run(reqs []request) ([]sent, []float64) {
	base := time.Now()
	for i := range reqs {
		reqs[i].due = base.Add(reqs[i].at)
	}
	due := make(chan request, len(reqs)) // sized to the sends
	pending := make(chan request, len(reqs))
	results := make([]sent, 0, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range due {
				s := g.send(r)
				if s.accepted {
					pending <- r
				}
				mu.Lock()
				results = append(results, s)
				mu.Unlock()
			}
		}()
	}
	settled := make(chan []float64, 1)
	go func() { settled <- g.poll(pending) }()
	for _, r := range reqs {
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		due <- r
	}
	close(due)
	wg.Wait()
	close(pending)
	return results, <-settled
}

func (g *generator) send(r request) sent {
	s := sent{req: r}
	start := time.Now()
	s.lateMS = ms(start.Sub(r.due))
	req, err := http.NewRequest(http.MethodPost, g.srv.url+"/v1/processes", bytes.NewReader(r.body))
	if err != nil {
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(procHeader, r.id)
	resp, err := g.client.Do(req)
	if err != nil {
		return s
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	s.accepted = resp.StatusCode == http.StatusAccepted
	s.admitMS = ms(time.Since(r.due))
	return s
}

// poll observes settlement through the server's status lookup (the
// same state GET /v1/processes/{tenant}/{id} reports) every pollEvery,
// until pending is closed and every accepted request settled or the
// deadline passed.
func (g *generator) poll(pending <-chan request) []float64 {
	var open []request
	var out []float64
	closed := false
	var deadline time.Time
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		if closed && (len(open) == 0 || time.Now().After(deadline)) {
			return out
		}
		if !closed {
			select {
			case r, ok := <-pending:
				if !ok {
					closed = true
					deadline = time.Now().Add(settleDeadline)
				} else {
					open = append(open, r)
				}
				continue
			case <-tick.C:
			}
		} else {
			<-tick.C
		}
		now := time.Now()
		kept := open[:0]
		for _, r := range open {
			if st, ok := g.srv.s.StatusOf(r.id); ok && st.Final {
				out = append(out, ms(now.Sub(r.due)))
			} else {
				kept = append(kept, r)
			}
		}
		open = kept
	}
}

func serveDir(seed int64, i int) string {
	return filepath.Join(outDir, fmt.Sprintf("serve-seed%d-%d", seed, i))
}

func runServeOpen(o options, rep *report) error {
	if !o.trace {
		r, err := serveTimed(o.seed, o.seconds, rep)
		if err != nil {
			return err
		}
		r.endToEnd(rep)
		return nil
	}
	// Traced run: the untraced half is a shorter timed run (its
	// latency and capacity figures are reported here, without a
	// bound), the traced half repeats its reference rate on a fresh
	// server with every seam recording.
	r, err := serveTimed(o.seed, o.seconds/2, rep)
	if err != nil {
		return err
	}
	r.latencies(rep)
	base := newPhase(false)
	for _, st := range r.refs {
		base.units = append(base.units, st.unit())
	}
	ph := newPhase(true)
	srv, _, err := openServer(serveDir(o.seed, setupSamples+1), ph.tr)
	if err != nil {
		return err
	}
	st, err := newGenerator(srv, o.seed).window(refRate, time.Duration(o.seconds/2*float64(time.Second)), ph)
	if err != nil {
		srv.close()
		return err
	}
	ph.units = []unitStats{st.unit()}
	ph.genLateMaxMS, ph.shed = st.lateMaxMS, st.shed
	ph.reg = srv.s.Metrics() // the server's registry holds the program's counters
	if err := checkServe(rep, srv, []*stepResult{st}); err != nil {
		srv.close()
		return err
	}
	if err := srv.close(); err != nil {
		return err
	}
	rep.attempted += st.sent
	rep.failed += st.sent - st.settled
	return perLayer(rep, o, ph, base)
}

func (st *stepResult) unit() unitStats {
	return unitStats{attempted: st.sent, settled: st.settled, wall: st.window, cpu: st.cpu, allocB: st.allocB}
}

// serveResult is what one timed serve-open run measured.
type serveResult struct {
	setups  []float64 // seconds
	refs    []*stepResult
	live    float64 // bytes, after the reference windows
	maxRate float64
}

// serveTimed sets up setupSamples+1 servers (timing each), runs the
// reference windows and the ladder on the last one, and checks its
// outputs. Requests count as attempted in the reference windows only:
// there every submission must settle, while the ladder overloads the
// server on purpose (its sheds are what max_rate_rps measures). The
// ladder's accepted submissions are checked like all others.
func serveTimed(seed int64, seconds float64, rep *report) (*serveResult, error) {
	r := &serveResult{}
	for i := 0; i < setupSamples; i++ {
		srv, d, err := openServer(serveDir(seed, i), newTracer(false))
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, d.Seconds())
		if err := srv.close(); err != nil {
			return nil, err
		}
	}
	ph := newPhase(false)
	srv, d, err := openServer(serveDir(seed, setupSamples), ph.tr)
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, d.Seconds())
	g := newGenerator(srv, seed)
	fail := func(err error) (*serveResult, error) {
		srv.close()
		return nil, err
	}

	// The reference rate runs as refWindows consecutive windows; each
	// metric is the median of the per-window values, so one window
	// caught by a storage stall does not set the run's figure.
	refDur := time.Duration(refShare * seconds / refWindows * float64(time.Second))
	stepDur := time.Duration((1 - refShare) * seconds / float64(len(ladder)) * float64(time.Second))
	for i := 0; i < refWindows; i++ {
		srv.s.WaitIdle(settleDeadline)
		st, err := g.window(refRate, refDur, ph)
		if err != nil {
			return fail(err)
		}
		r.refs = append(r.refs, st)
	}
	r.live = liveHeap()
	gort.KeepAlive(srv)

	checked := append([]*stepResult(nil), r.refs...)
	prevRate, prevMiss := 0.0, 0.0
	for _, rate := range ladder {
		srv.s.WaitIdle(settleDeadline)
		st, err := g.window(rate, stepDur, ph)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("ladder %5.0f/s: sent %d, accepted %d, shed %d, miss %.2f%%, settle p99 %.1f ms, late max %.1f ms\n",
			rate, st.sent, st.accepted, st.shed, 100*st.missShare(), st.settleP99(), st.lateMaxMS)
		checked = append(checked, st)
		miss := st.missShare()
		if miss > missLimit {
			r.maxRate = prevRate + (rate-prevRate)*(missLimit-prevMiss)/(miss-prevMiss)
			break
		}
		prevRate, prevMiss, r.maxRate = rate, miss, rate
	}
	if err := checkServe(rep, srv, checked); err != nil {
		return fail(err)
	}
	if err := srv.close(); err != nil {
		return nil, err
	}
	for _, st := range r.refs {
		rep.attempted += st.sent
		rep.failed += st.sent - st.settled
	}
	return r, nil
}

// perWindow is the median over the reference windows of f.
func (r *serveResult) perWindow(f func(st *stepResult) float64) float64 {
	var xs []float64
	for _, st := range r.refs {
		xs = append(xs, f(st))
	}
	return median(xs)
}

func (r *serveResult) endToEnd(rep *report) {
	rep.set("setup_s", "s", median(r.setups))
	rep.set("procs_per_s", "1/s", r.perWindow(func(st *stepResult) float64 { return float64(st.settled) / st.window.Seconds() }))
	rep.set("cpu_ms_per_proc", "ms", r.perWindow(func(st *stepResult) float64 { return ratio(ms(st.cpu), float64(st.settled)) }))
	rep.set("alloc_mb_per_kproc", "MB", r.perWindow(func(st *stepResult) float64 { return ratio(st.allocB/1e6*1000, float64(st.settled)) }))
	rep.set("retained_mb", "MB", r.live/1e6)
}

// latencies reports the reference-rate latency percentiles and the
// ladder's capacity (see latencyFigures).
func (r *serveResult) latencies(rep *report) {
	q := func(xs []float64, p float64) float64 { return quantile(sortedCopy(xs), p) }
	var l latencyFigures
	l.admit50 = r.perWindow(func(st *stepResult) float64 { return q(st.admitMS, 0.50) })
	l.admit99 = r.perWindow(func(st *stepResult) float64 { return q(st.admitMS, 0.99) })
	l.settle50 = r.perWindow(func(st *stepResult) float64 { return q(st.settleMS, 0.50) })
	l.settle99 = r.perWindow(func(st *stepResult) float64 { return q(st.settleMS, 0.99) })
	l.maxRate = r.maxRate
	l.report(rep)
}

// checkServe checks a server's outputs after its windows: every
// accepted submission is final and listed once, the WAL shows each
// settled exactly once, and the WAL's schedule is serializable and
// process-recoverable.
func checkServe(rep *report, srv *server, steps []*stepResult) error {
	if !srv.s.WaitIdle(settleDeadline) {
		rep.problem("serve-open: server not idle %s after the last window", settleDeadline)
	}
	var ids []string
	for _, st := range steps {
		ids = append(ids, st.ids...)
	}
	for _, id := range ids {
		st, ok := srv.s.StatusOf(id)
		if !ok || !st.Final {
			rep.problem("serve-open: accepted submission %s is not final", id)
		}
	}
	if n := len(srv.s.Statuses(serveTenant, "")); n != len(ids) {
		rep.problem("serve-open: server lists %d submissions, %d were accepted", n, len(ids))
	}
	recs, err := srv.s.Log().Records()
	if err != nil {
		return err
	}
	checkLog(rep, "serve-open", recs, ids)
	table, err := srv.fed.ConflictTable()
	if err != nil {
		return err
	}
	defs := map[string]*process.Process{}
	for _, d := range srv.s.Defs() {
		defs[string(d.ID)] = d
	}
	for _, seg := range quiescentSegments(recs) {
		var segDefs []*process.Process
		for _, o := range seg.origins {
			if d := defs[o]; d != nil {
				segDefs = append(segDefs, d)
			}
		}
		s, err := fault.ScheduleFromWAL(table, segDefs, seg.recs, len(seg.recs))
		if err != nil {
			rep.problem("serve-open: schedule from WAL: %v", err)
			continue
		}
		checkSchedule(rep, "serve-open", s)
	}
	return nil
}

type segment struct {
	recs    []wal.Record
	origins []string
}

// quiescentSegments splits a log at the points where every process
// that appeared so far has logged its last record. Processes of two
// segments never overlap in time, so every conflict between them is
// ordered from the earlier segment to the later, both commits
// included: no serialization-graph cycle and no process-recoverability
// violation can span segments, and checking the segments one by one is
// the whole-schedule check at a fraction of its quadratic cost.
func quiescentSegments(recs []wal.Record) []segment {
	last := map[string]int{}
	for i, r := range recs {
		if r.Proc != "" {
			last[origin(r.Proc)] = i
		}
	}
	var out []segment
	seen := map[string]bool{}
	cur := segment{}
	reach := -1
	for i, r := range recs {
		cur.recs = append(cur.recs, r)
		if r.Proc != "" {
			o := origin(r.Proc)
			if !seen[o] {
				seen[o] = true
				cur.origins = append(cur.origins, o)
			}
			reach = max(reach, last[o])
		}
		if reach <= i {
			out = append(out, cur)
			cur = segment{}
		}
	}
	if len(cur.recs) > 0 {
		out = append(out, cur)
	}
	return out
}
