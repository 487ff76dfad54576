package main

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"transproc/internal/activity"
	"transproc/internal/federation"
	"transproc/internal/metrics"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// The seams below wrap the program's public entry points and
// injection points; they never reach into a layer. Each one forwards
// every optional interface its inner value implements, so wrapping
// keeps the program's code path (a group-commit appender over a
// wrapper that hid wal.BatchBackend would fall back to one fsync per
// record).

// spanKind names the seam a span was recorded at.
type spanKind uint8

const (
	spanRuntimeRun spanKind = iota + 1
	spanWALAppend
	spanWALSync
	spanInvoke
	spanClusterRun
	spanNodeWALAppend
	spanNodeWALSync
	spanHubJournal
	spanServeHandler
	spanServeWALAppend
	spanServeWALSync
)

var spanKindNames = map[spanKind]string{
	spanRuntimeRun:     "runtime.run",
	spanWALAppend:      "wal.append",
	spanWALSync:        "wal.sync",
	spanInvoke:         "subsystem.invoke",
	spanClusterRun:     "federation.run",
	spanNodeWALAppend:  "federation.node_wal.append",
	spanNodeWALSync:    "federation.node_wal.sync",
	spanHubJournal:     "federation.hub_journal.append",
	spanServeHandler:   "serve.handler",
	spanServeWALAppend: "serve.wal.append",
	spanServeWALSync:   "serve.wal.sync",
}

// span is one seam call: start and end are nanoseconds since the
// tracer's base; parent is the id of the enclosing root span (0 for
// none). Spans of one process share proc.
type span struct {
	kind       spanKind
	parent     int
	proc       string
	start, end int64
}

// tracer keeps spans in memory. A disabled tracer (on == false)
// records nothing; the seams then only forward.
type tracer struct {
	on   bool
	base time.Time

	mu     sync.Mutex
	spans  []span
	parent int // id of the open root span that seam calls belong to
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// record appends a span ending now.
func (t *tracer) record(kind spanKind, proc string, start int64) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, parent: t.parent, proc: proc, start: start, end: end})
	t.mu.Unlock()
}

// root opens a root span (a Run call) and returns its id; seam calls
// until the returned close function runs become its children.
func (t *tracer) root(kind spanKind, proc string) (id int, closeSpan func()) {
	if !t.on {
		return 0, func() {}
	}
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, proc: proc, start: start})
	id = len(t.spans)
	t.parent = id
	t.mu.Unlock()
	return id, func() {
		end := t.now()
		t.mu.Lock()
		t.spans[id-1].end = end
		t.parent = 0
		t.mu.Unlock()
	}
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// procClock stamps, per process origin, the first admission record
// and the last termination record a log saw: the per-process admit
// and settle times of the burst workloads. It runs with tracing off,
// too; it costs one map update per start/terminate record.
type procClock struct {
	base time.Time

	mu     sync.Mutex
	admit  map[string]time.Duration
	settle map[string]time.Duration
}

func newProcClock() *procClock {
	return &procClock{base: time.Now(), admit: map[string]time.Duration{}, settle: map[string]time.Duration{}}
}

// origin strips an incarnation suffix ("W7+r1" -> "W7").
func origin(proc string) string {
	if i := strings.IndexByte(proc, '+'); i >= 0 {
		return proc[:i]
	}
	return proc
}

func (c *procClock) note(r wal.Record) {
	if c == nil || (r.Type != wal.RecStart && r.Type != wal.RecTerminate) {
		return
	}
	at := time.Since(c.base)
	o := origin(r.Proc)
	c.mu.Lock()
	if r.Type == wal.RecStart {
		if _, seen := c.admit[o]; !seen {
			c.admit[o] = at
		}
	} else {
		c.settle[o] = at
	}
	c.mu.Unlock()
}

// reset restarts the clock for a new run.
func (c *procClock) reset() {
	c.mu.Lock()
	c.base = time.Now()
	c.admit = map[string]time.Duration{}
	c.settle = map[string]time.Duration{}
	c.mu.Unlock()
}

// latencies returns the admit and settle offsets of every origin that
// has both, in milliseconds.
func (c *procClock) latencies() (admit, settle []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for o, a := range c.admit {
		s, ok := c.settle[o]
		if !ok {
			continue
		}
		admit = append(admit, ms(a))
		settle = append(settle, ms(s))
	}
	return admit, settle
}

// walSeam wraps a wal.Log. It implements wal.Instrumented and
// wal.Compactor by forwarding (a no-op when the inner log lacks them,
// which is what the engines do for such a log); batchWALSeam adds
// wal.BatchBackend only when the inner log has it.
type walSeam struct {
	inner        wal.Log
	append, sync spanKind
	tr           *tracer
	clock        *procClock
}

// wrapWAL returns a seam over inner that keeps every optional
// interface of inner.
func wrapWAL(inner wal.Log, appendKind, syncKind spanKind, tr *tracer, clock *procClock) wal.Log {
	w := &walSeam{inner: inner, append: appendKind, sync: syncKind, tr: tr, clock: clock}
	if _, ok := inner.(wal.BatchBackend); ok {
		return &batchWALSeam{w}
	}
	return w
}

// Append implements wal.Log.
func (w *walSeam) Append(r wal.Record) (int64, error) {
	var start int64
	if w.tr.on {
		start = w.tr.now()
	}
	lsn, err := w.inner.Append(r)
	if w.tr.on {
		w.tr.record(w.append, r.Proc, start)
	}
	w.clock.note(r)
	return lsn, err
}

// Records implements wal.Log.
func (w *walSeam) Records() ([]wal.Record, error) { return w.inner.Records() }

// Close implements wal.Log.
func (w *walSeam) Close() error { return w.inner.Close() }

// SetMetrics implements wal.Instrumented.
func (w *walSeam) SetMetrics(m *metrics.Registry) {
	if il, ok := w.inner.(wal.Instrumented); ok {
		il.SetMetrics(m)
	}
}

// Compact implements wal.Compactor.
func (w *walSeam) Compact(inject func(string)) error {
	if c, ok := w.inner.(wal.Compactor); ok {
		return c.Compact(inject)
	}
	return nil
}

// batchWALSeam is a walSeam over a wal.BatchBackend.
type batchWALSeam struct{ *walSeam }

// AppendNoSync implements wal.BatchBackend.
func (w *batchWALSeam) AppendNoSync(r wal.Record) (int64, error) {
	var start int64
	if w.tr.on {
		start = w.tr.now()
	}
	lsn, err := w.inner.(wal.BatchBackend).AppendNoSync(r)
	if w.tr.on {
		w.tr.record(w.append, r.Proc, start)
	}
	w.clock.note(r)
	return lsn, err
}

// Sync implements wal.BatchBackend.
func (w *batchWALSeam) Sync() error {
	var start int64
	if w.tr.on {
		start = w.tr.now()
	}
	err := w.inner.(wal.BatchBackend).Sync()
	if w.tr.on {
		w.tr.record(w.sync, "", start)
	}
	return err
}

// journalSeam wraps the federation hub journal.
type journalSeam struct {
	inner federation.HubJournal
	tr    *tracer
}

// Append implements federation.HubJournal.
func (j *journalSeam) Append(e federation.JEntry) error {
	if !j.tr.on {
		return j.inner.Append(e)
	}
	start := j.tr.now()
	err := j.inner.Append(e)
	j.tr.record(spanHubJournal, e.Proc, start)
	return err
}

// Entries implements federation.HubJournal.
func (j *journalSeam) Entries() ([]federation.JEntry, error) { return j.inner.Entries() }

// Close implements federation.HubJournal.
func (j *journalSeam) Close() error { return j.inner.Close() }

// invokerSeam is a subsystem.ResilientInvoker that adds nothing but a
// span: it makes the direct subsystem call the engine makes when no
// resilience layer is configured. It is installed only in traced runs
// (an engine with a Resilience invoker also formats an idempotency key
// per invocation, which belongs to the tracing overhead).
type invokerSeam struct {
	fed *subsystem.Federation
	tr  *tracer
}

// InvokeResilient implements subsystem.ResilientInvoker.
func (s *invokerSeam) InvokeResilient(proc, service string, _ activity.Kind, mode subsystem.Mode, _ string) (*subsystem.Result, int64, error) {
	start := s.tr.now()
	res, err := s.fed.Invoke(proc, service, mode)
	s.tr.record(spanInvoke, proc, start)
	return res, 0, err
}

// procHeader carries the submission id from the generator to the
// handler seam, so the handler span shares the process's id.
const procHeader = "X-Perfbench-Proc"

// handlerSeam times submissions through the server's Handler.
func handlerSeam(h http.Handler, tr *tracer) http.Handler {
	if !tr.on {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		h.ServeHTTP(w, r)
		tr.record(spanServeHandler, r.Header.Get(procHeader), start)
	})
}

// spanStats summarizes the spans of one kind.
type spanStats struct {
	count  int
	busyMS float64
	durUS  []float64 // sorted
}

func statsOf(spans []span, kind spanKind) spanStats {
	var st spanStats
	for _, s := range spans {
		if s.kind != kind {
			continue
		}
		d := float64(s.end-s.start) / 1e3
		st.count++
		st.busyMS += d / 1e3
		st.durUS = append(st.durUS, d)
	}
	sort.Float64s(st.durUS)
	return st
}

// selfMS is the root span's duration minus the union of its
// children's intervals (children of concurrent workers overlap; the
// union counts covered time once).
func selfMS(spans []span, rootID int) float64 {
	root := spans[rootID-1]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		if s.parent != rootID {
			continue
		}
		a, b := max(s.start, root.start), min(s.end, root.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	curA, curB = -1, -1
	for _, x := range ivs {
		if x.a > curB {
			covered += curB - curA
			curA, curB = x.a, x.b
		} else if x.b > curB {
			curB = x.b
		}
	}
	covered += curB - curA
	return float64(root.end-root.start-covered) / 1e6
}
