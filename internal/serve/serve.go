// Package serve is the long-running ingestion service over the
// transactional process engines: a dependency-free HTTP/JSON server
// that accepts declarative process specs (internal/spec), executes
// them on the concurrent runtime (or a federation cluster) against one
// durable write-ahead log, and streams per-process status and
// decision-trace events.
//
// Robustness is the design center:
//
//   - Admission control and backpressure: a bounded admission queue
//     sheds load with 429 + Retry-After when the queue or the in-flight
//     window fills; per-tenant namespaces carry deterministic
//     token-bucket rate budgets and retry budgets (tenant.go).
//   - Graceful drain: SIGTERM or POST /v1/drain stops admission, lets
//     in-flight work finish within a deadline (the remainder parks
//     durably in the intake journal), then checkpoints and closes the
//     WAL. /readyz flips unready during drain and overload.
//   - Crash-safe restart: every accepted submission is force-logged to
//     the intake journal before it can reach the WAL (journal.go), so
//     a kill -9 at any point is recoverable: reopening the same data
//     directory replays the journal, runs scheduler.Recover over the
//     WAL (settling in-flight processes backward or forward per
//     Definition 8.2b), and re-admits every non-final submission
//     exactly once — committed work is never re-run, interrupted work
//     is resumed as a fresh incarnation ("id+rN", the engines' own
//     restart notation, so origin resolution and the PRED checker
//     apply unchanged). Duplicate client submissions are absorbed by
//     idempotency keys.
//
// Execution is micro-batched: a runner goroutine drains the admission
// queue into small batches, each run to completion on a fresh runtime
// over the shared federation and WAL. Batches serialize against each
// other, so the accumulated log is one consistent history (LSNs
// continue across batches and restarts) and every 2PC resolves within
// its batch.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"transproc/internal/conflict"
	"transproc/internal/fault"
	"transproc/internal/federation"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/runtime"
	"transproc/internal/scheduler"
	"transproc/internal/spec"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// Config parameterizes a Server. The zero value of optional fields
// picks serviceable defaults; Dir is required.
type Config struct {
	// Dir is the data directory: wal.log + intake.journal.
	Dir string
	// Workers caps concurrently admitted processes inside a batch
	// (0 = unlimited).
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it are
	// shed with 429 (default 64).
	QueueDepth int
	// BatchMax is the in-flight window: the maximum submissions per
	// runner micro-batch (default 8).
	BatchMax int
	// BatchWait is how long the runner waits to fill a batch after the
	// first submission arrives (default 2ms).
	BatchWait time.Duration
	// Tick is the real duration of one virtual cost unit of service
	// time inside the engines (0 = no sleeping). Load tests use it to
	// hold the in-flight window busy.
	Tick time.Duration
	// MaxRestarts bounds engine-level restarts per process (default 8).
	MaxRestarts int
	// DrainTimeout bounds how long Drain waits for in-flight work
	// before parking the rest (default 10s).
	DrainTimeout time.Duration
	// NoSync disables the per-append WAL fsync (batteries use it for
	// speed; production keeps the force-log discipline).
	NoSync bool
	// CheckpointEvery takes a fuzzy WAL checkpoint after that many
	// engine force-log appends (0 disables); CompactOnCheckpoint
	// rewrites the log as checkpoint + tail afterwards.
	CheckpointEvery     int
	CompactOnCheckpoint bool
	// GroupCommit batches WAL appends (wal.GroupAppender) when
	// MaxBatch > 0.
	GroupCommit wal.GroupCommit
	// Tenant bounds each tenant namespace.
	Tenant TenantConfig
	// Metrics is the observability registry (default: a fresh one).
	Metrics *metrics.Registry
	// Inject is the crash-point hook (internal/fault); nil is a no-op.
	// The server fires serve:admit / serve:ack / serve:drain and hands
	// the hook to the engines for their own points.
	Inject func(point string)
	// WrapLog, when set, wraps the engine-visible WAL (the fault
	// batteries install record-budget crash wrappers here). Recovery
	// and checkpointing always use the raw file log.
	WrapLog func(wal.Log) wal.Log
	// Now is the clock for tenant buckets (default time.Now) —
	// injectable for deterministic battery runs.
	Now func() time.Time
	// HoldResume keeps restart-resumed submissions parked until Resume
	// is called. Batteries use it to judge the post-recovery state
	// (CheckRecovered's invariants speak about recovery's log tail)
	// before the resumed work starts appending records of its own.
	HoldResume bool
	// FedNodes > 0 routes batches through a federation cluster of that
	// many scheduler nodes instead of the in-process runtime; the
	// stitched per-node WALs are appended to the server log after each
	// batch as an audit copy (weaker mid-batch crash-safety: the
	// journal, not the server WAL, is what restarts resume from).
	FedNodes int
	// FedLeaseTTL / FedHeartbeat enable lease-based membership inside
	// the federation cluster (zero = disabled): a silent node's lease
	// expires and its safe orphans re-home to survivors mid-batch.
	FedLeaseTTL  time.Duration
	FedHeartbeat time.Duration
	// FedHubKillPoint arms a hub-side crash point (hub:dispatch,
	// hub:decision, hub:resolve) on the FIRST federated batch only —
	// the hub dies kill -9 style mid-batch and the cluster reopens it
	// from the stitched WALs plus its journal while /readyz reports
	// degraded. Battery use.
	FedHubKillPoint string
	FedHubKillCount int
}

// submission states.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateCommitted = "committed"
	stateAborted   = "aborted"
)

// submission is one admitted process, guarded by Server.mu.
type submission struct {
	id        string // origin id "tenant/name"
	tenant    string
	key       string
	seq       int64
	ps        spec.ProcessSpec
	runID     string // job id of the current/last attempt (origin or origin+rN)
	state     string
	final     bool // sealed in the journal
	restarts  int
	recovered bool // settled or resumed by restart recovery
	resumed   bool
	version   int64
	errMsg    string
}

// Status is the externally visible state of one submission.
type Status struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	Proc      string `json:"proc"`
	State     string `json:"state"`
	Committed bool   `json:"committed"`
	Final     bool   `json:"final"`
	Restarts  int    `json:"restarts,omitempty"`
	Recovered bool   `json:"recovered,omitempty"`
	Resumed   bool   `json:"resumed,omitempty"`
	Seq       int64  `json:"seq"`
	RunID     string `json:"runId,omitempty"`
	Error     string `json:"error,omitempty"`
}

// DrainReport summarizes a completed drain.
type DrainReport struct {
	Finished int           `json:"finished"` // submissions terminal at drain end
	Parked   int           `json:"parked"`   // journaled but still queued (resume on restart)
	Elapsed  time.Duration `json:"elapsed"`
}

// Server is one ingestion service instance over a fixed federation.
type Server struct {
	cfg   Config
	fed   *subsystem.Federation
	reg   *metrics.Registry
	log   *wal.FileLog
	view  wal.Log // engine-visible log (possibly wrapped)
	jr    *journal
	table *conflict.Table
	tn    *tenants

	mu       sync.Mutex
	subs     map[string]*submission // by origin id
	order    []string               // origin ids in admission order
	byKey    map[string]string      // tenant+"\x00"+key -> origin id
	defs     map[string]*process.Process
	reserved int           // admitted but not yet enqueued (queue slots spoken for)
	held     []*submission // resume set parked by Config.HoldResume

	queue chan *submission
	// pending counts submissions from enqueue until their fate is
	// sealed. Counting at the enqueue side (not in the runner) leaves
	// no window where dequeued-but-unsealed work looks idle.
	pending atomic.Int64

	draining    atomic.Bool
	crashed     atomic.Bool
	closed      atomic.Bool
	hubDegraded atomic.Bool  // federation hub unreachable (reopen in progress)
	hubKillUsed atomic.Bool  // FedHubKillPoint armed once already
	crashPt     atomic.Value // string
	stopOnce    sync.Once
	stopCh      chan struct{}
	drainMu     sync.Mutex

	runnerWG sync.WaitGroup
	httpSrv  *http.Server
	httpLn   net.Listener

	report  *scheduler.RecoveryReport
	resumed int
	reruns  int

	// reopenLSNs are the server-log LSN boundaries of federation hub
	// reopens ridden through by this incarnation's batches (guarded by
	// mu; see ReopenBoundaries).
	reopenLSNs []int64
}

// Open creates or reopens a server over the federation and data
// directory. Reopening a directory left by a crash runs full restart
// recovery before the server accepts traffic: journal replay →
// scheduler.Recover over the WAL → re-admission of every non-final
// submission (fresh if it never reached the WAL, as a new incarnation
// otherwise, gated by the tenant's retry budget).
func Open(fed *subsystem.Federation, cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 8
	}
	if cfg.BatchWait <= 0 {
		cfg.BatchWait = 2 * time.Millisecond
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 8
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	jr, entries, err := openJournal(filepath.Join(cfg.Dir, "intake.journal"))
	if err != nil {
		return nil, err
	}
	log, err := wal.OpenFile(filepath.Join(cfg.Dir, "wal.log"), !cfg.NoSync)
	if err != nil {
		jr.close()
		return nil, err
	}
	log.SetMetrics(cfg.Metrics)
	table, err := fed.ConflictTable()
	if err != nil {
		jr.close()
		log.Close()
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		fed:    fed,
		reg:    cfg.Metrics,
		log:    log,
		jr:     jr,
		table:  table,
		tn:     newTenants(cfg.Tenant, cfg.Now),
		subs:   make(map[string]*submission),
		byKey:  make(map[string]string),
		defs:   make(map[string]*process.Process),
		stopCh: make(chan struct{}),
	}
	s.view = wal.Log(log)
	if cfg.WrapLog != nil {
		s.view = cfg.WrapLog(log)
	}
	pending, err := s.restore(entries)
	if err != nil {
		jr.close()
		log.Close()
		return nil, err
	}
	s.queue = make(chan *submission, cfg.QueueDepth+len(pending))
	for _, sub := range pending {
		sub.state = stateQueued
	}
	if cfg.HoldResume {
		s.held = pending
	} else {
		s.pending.Add(int64(len(pending)))
		for _, sub := range pending {
			s.queue <- sub
		}
	}
	s.runnerWG.Add(1)
	go s.runner()
	return s, nil
}

// Resume releases submissions held back by Config.HoldResume into the
// admission queue.
func (s *Server) Resume() {
	s.mu.Lock()
	held := s.held
	s.held = nil
	s.mu.Unlock()
	s.pending.Add(int64(len(held)))
	for _, sub := range held {
		s.queue <- sub
	}
}

// restore rebuilds in-memory state from the intake journal and the
// WAL, running crash recovery when the log is non-empty. It returns
// the resume set in admission order.
func (s *Server) restore(entries []JournalEntry) ([]*submission, error) {
	sealed := make(map[string]JournalEntry)
	for _, e := range entries {
		if e.Done {
			sealed[e.ID] = e
			continue
		}
		if _, dup := s.subs[e.ID]; dup {
			continue // idempotent journal replay
		}
		ps := *e.Proc
		ps.ID = e.ID
		def, err := spec.BuildProcess(s.fed, ps)
		if err != nil {
			return nil, fmt.Errorf("serve: journaled process %s no longer builds: %w", e.ID, err)
		}
		sub := &submission{id: e.ID, tenant: e.Tenant, key: e.Key, seq: e.Seq, ps: *e.Proc, runID: e.ID, state: stateQueued}
		s.subs[e.ID] = sub
		s.order = append(s.order, e.ID)
		s.defs[e.ID] = def
		if e.Key != "" {
			s.byKey[e.Tenant+"\x00"+e.Key] = e.ID
		}
	}
	recs, err := s.log.Records()
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 {
		report, err := scheduler.RecoverWithMetrics(s.fed, s.log, s.defsList(), s.reg)
		if err != nil {
			return nil, fmt.Errorf("serve: restart recovery: %w", err)
		}
		s.report = report
		if recs, err = s.log.Records(); err != nil {
			return nil, err
		}
	}
	folded := map[string]fold{}
	if exp := wal.Expand(recs); len(exp.Records) > 0 {
		images, err := wal.Analyze(exp.Records)
		if err != nil {
			return nil, fmt.Errorf("serve: analyze restored log: %w", err)
		}
		folded = foldImages(images)
	}
	var pending []*submission
	for _, id := range s.order {
		sub := s.subs[id]
		if e, ok := sealed[id]; ok {
			sub.final = true
			sub.state = stateAborted
			if e.Committed {
				sub.state = stateCommitted
			}
			continue
		}
		f := folded[id]
		switch {
		case f.committed:
			// Terminal in the WAL but the seal was lost to the crash:
			// seal it now, never re-run committed work.
			sub.state = stateCommitted
			sub.recovered = true
			s.seal(sub, true)
		case f.incarnations == 0:
			// Journaled but never reached the WAL: parked by a drain or
			// lost mid-admission — resume as-is, exactly once.
			sub.resumed = true
			s.resumed++
			s.reg.Inc(metrics.ServeResumed)
			pending = append(pending, sub)
		default:
			// Crash-interrupted (settled backward by recovery) or
			// aborted without a seal (the batch never finished): re-run
			// once as a fresh incarnation, if the tenant budget allows.
			sub.recovered = true
			sub.restarts = f.incarnations - 1
			if s.tn.takeRetry(sub.tenant) {
				sub.runID = fmt.Sprintf("%s+r%d", id, f.maxSuffix+1)
				sub.resumed = true
				s.reruns++
				s.reg.Inc(metrics.ServeReruns)
				pending = append(pending, sub)
			} else {
				sub.state = stateAborted
				sub.errMsg = "retry budget exhausted after restart"
				s.seal(sub, false)
			}
		}
	}
	return pending, nil
}

// fold is the per-origin digest of WAL incarnations.
type fold struct {
	committed    bool
	incarnations int
	maxSuffix    int // highest +rN suffix seen (engine or server assigned)
}

// foldImages folds per-incarnation WAL images by origin: an origin
// committed iff any of its incarnations did (the differential
// battery's folding rule).
func foldImages(images map[string]*wal.ProcImage) map[string]fold {
	out := make(map[string]fold)
	for id, img := range images {
		origin := id
		suffix := 0
		if i := strings.IndexByte(id, '+'); i >= 0 {
			origin = id[:i]
			rest := strings.TrimPrefix(id[i+1:], "r")
			if j := strings.IndexByte(rest, '+'); j >= 0 {
				rest = rest[:j]
			}
			if n, err := strconv.Atoi(rest); err == nil {
				suffix = n
			}
		}
		f := out[origin]
		f.incarnations++
		if img.Terminated && img.TerminatedCommitted {
			f.committed = true
		}
		if suffix > f.maxSuffix {
			f.maxSuffix = suffix
		}
		out[origin] = f
	}
	return out
}

// seal writes the submission's final fate to the journal.
func (s *Server) seal(sub *submission, committed bool) {
	sub.final = true
	sub.version++
	if err := s.jr.append(&JournalEntry{ID: sub.id, Tenant: sub.tenant, Done: true, Committed: committed}, true); err != nil && !s.crashed.Load() {
		s.crashNow("journal:" + err.Error())
	}
}

func (s *Server) defsList() []*process.Process {
	out := make([]*process.Process, 0, len(s.defs))
	for _, id := range s.order {
		out = append(out, s.defs[id])
	}
	return out
}

// inject fires a named crash point through the configured hook.
func (s *Server) inject(point string) {
	if s.cfg.Inject != nil {
		s.cfg.Inject(point)
	}
}

// crashNow simulates the kill -9: admission and the runner stop, the
// HTTP listener dies, and the WAL and journal are abandoned un-closed
// exactly as the OS would leave them.
func (s *Server) crashNow(point string) {
	s.crashPt.CompareAndSwap(nil, point)
	s.crashed.Store(true)
	s.stopOnce.Do(func() { close(s.stopCh) })
	if srv := s.httpSrv; srv != nil {
		go srv.Close()
	}
}

// protect converts an escaped crash sentinel into server death.
func (s *Server) protect(f func()) (crashed bool) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		c, ok := fault.AsCrash(v)
		if !ok {
			panic(v)
		}
		s.crashNow(c.Point)
		crashed = true
	}()
	f()
	return false
}

// runner is the micro-batch execution loop.
func (s *Server) runner() {
	defer s.runnerWG.Done()
	for {
		var first *submission
		select {
		case first = <-s.queue:
		case <-s.stopCh:
			return
		}
		batch := []*submission{first}
		timer := time.NewTimer(s.cfg.BatchWait)
	fill:
		for len(batch) < s.cfg.BatchMax {
			select {
			case sub := <-s.queue:
				batch = append(batch, sub)
			case <-timer.C:
				break fill
			case <-s.stopCh:
				timer.Stop()
				return
			}
		}
		timer.Stop()
		s.runBatch(batch)
		if s.crashed.Load() {
			return
		}
	}
}

// runBatch executes one micro-batch to completion on a fresh engine
// over the shared federation and WAL, then folds outcomes, debits
// tenant retry budgets and seals fates in the journal.
func (s *Server) runBatch(batch []*submission) {
	s.reg.Inc(metrics.ServeBatches)
	s.reg.Observe(metrics.HistServeBatch, int64(len(batch)))
	jobs := make([]scheduler.Job, len(batch))
	s.mu.Lock()
	for i, sub := range batch {
		sub.state = stateRunning
		sub.version++
		def := s.defs[sub.id]
		if sub.runID != sub.id {
			def = def.WithID(process.ID(sub.runID))
		}
		jobs[i] = scheduler.Job{Proc: def, Arrival: int64(i)}
	}
	s.mu.Unlock()

	outcomes, err := s.execute(jobs)
	if err != nil {
		if errors.Is(err, scheduler.ErrCrashed) {
			s.crashNow(fmt.Sprintf("engine: %v", err))
			return
		}
		s.crashNow(fmt.Sprintf("batch: %v", err))
		return
	}

	folded := make(map[string]struct {
		committed bool
		restarts  int
	})
	for id, o := range outcomes {
		origin := string(id)
		if i := strings.IndexByte(origin, '+'); i >= 0 {
			origin = origin[:i]
		}
		f := folded[origin]
		if o.Committed {
			f.committed = true
		}
		f.restarts += o.Restarts
		folded[origin] = f
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range batch {
		f := folded[sub.id]
		s.tn.debitRestarts(sub.tenant, f.restarts)
		sub.restarts += f.restarts
		if f.committed {
			sub.state = stateCommitted
		} else {
			sub.state = stateAborted
		}
		s.seal(sub, f.committed)
	}
	// Sealed under the lock: idle() can't observe the drop before the
	// terminal states are visible.
	s.pending.Add(-int64(len(batch)))
}

// execute runs one batch on the configured engine flavor.
func (s *Server) execute(jobs []scheduler.Job) (map[process.ID]*scheduler.Outcome, error) {
	if s.cfg.FedNodes > 0 {
		return s.executeFed(jobs)
	}
	rt, err := runtime.New(s.fed, runtime.Config{
		Log:                 s.view,
		Workers:             s.cfg.Workers,
		Tick:                s.cfg.Tick,
		MaxRestarts:         s.cfg.MaxRestarts,
		Metrics:             s.reg,
		Inject:              s.cfg.Inject,
		CheckpointEvery:     s.cfg.CheckpointEvery,
		CompactOnCheckpoint: s.cfg.CompactOnCheckpoint,
		GroupCommit:         s.cfg.GroupCommit,
	})
	if err != nil {
		return nil, err
	}
	res, err := rt.Run(context.Background(), jobs)
	if res == nil {
		return nil, err
	}
	return res.Outcomes, err
}

// executeFed routes the batch through a federation cluster; the
// stitched per-node WALs are appended to the server log afterwards as
// an audit copy.
func (s *Server) executeFed(jobs []scheduler.Job) (map[process.ID]*scheduler.Outcome, error) {
	defs := make([]*process.Process, len(jobs))
	for i, j := range jobs {
		defs[i] = j.Proc
	}
	var bmu sync.Mutex
	var boundStamps []int64 // first re-stamped tail stamp per hub reopen
	fcfg := federation.Config{
		Nodes: s.cfg.FedNodes, MaxRestarts: s.cfg.MaxRestarts, Metrics: s.reg,
		LeaseTTL: s.cfg.FedLeaseTTL, HeartbeatEvery: s.cfg.FedHeartbeat,
		OnHubDown: func() { s.hubDegraded.Store(true) },
		OnHubUp:   func() { s.hubDegraded.Store(false) },
		// A mid-batch hub reopen is judged at its boundary: the stitched
		// history plus the reopen's recovery tail must satisfy the same
		// invariants a single-node crash recovery is held to.
		OnReopen: func(rep *federation.ReopenReport) error {
			bmu.Lock()
			if len(rep.Tail) > 0 {
				boundStamps = append(boundStamps, rep.Tail[0].Stamp)
			}
			bmu.Unlock()
			return fault.CheckRecovered(fault.CheckInput{
				Fed: s.fed, Log: rep.Log, Defs: defs,
				PreCrashRecords: rep.Pre, PreCrashFull: rep.Pre,
			})
		},
	}
	if s.cfg.FedHubKillPoint != "" && s.hubKillUsed.CompareAndSwap(false, true) {
		fcfg.HubKill = federation.CrashSpec{Point: s.cfg.FedHubKillPoint, Count: s.cfg.FedHubKillCount}
	}
	c, err := federation.NewCluster(s.fed, defs, fcfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res := c.Run()
	if res.HubErr != nil {
		return nil, fmt.Errorf("hub reopen: %w", res.HubErr)
	}
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			return nil, fmt.Errorf("node %d: %w", i, nerr)
		}
	}
	recs, err := c.Stitched()
	if err != nil {
		return nil, err
	}
	// While copying the stitched batch history into the server log,
	// translate each reopen's stamp boundary into a server-log LSN (the
	// last record stamped before the reopen's re-stamped recovery tail).
	// The end-state judges need these: recovery-tail records replay in
	// recovering mode, not as ordinary forward work.
	bmu.Lock()
	bounds := append([]int64(nil), boundStamps...)
	bmu.Unlock()
	boundLSNs := make([]int64, len(bounds))
	for _, rec := range recs {
		if rec.Type == wal.RecCheckpoint {
			continue
		}
		lsn, err := s.log.Append(rec)
		if err != nil {
			return nil, err
		}
		for i, b := range bounds {
			if rec.Stamp < b {
				boundLSNs[i] = lsn
			}
		}
	}
	s.mu.Lock()
	s.reopenLSNs = append(s.reopenLSNs, boundLSNs...)
	s.mu.Unlock()
	return res.Outcomes, nil
}

// ReopenBoundaries returns the server-log LSN boundary of every
// federation hub reopen its batches rode through, in occurrence order —
// the crash-epoch boundaries the battery judges feed to
// fault.ScheduleFromWALEpochs / CheckRecovered.
func (s *Server) ReopenBoundaries() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.reopenLSNs...)
}

// idle reports whether no work is queued or running.
func (s *Server) idle() bool {
	if s.pending.Load() > 0 || len(s.queue) > 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reserved > 0 || len(s.held) > 0 {
		return false
	}
	for _, sub := range s.subs {
		if sub.state == stateRunning {
			return false
		}
	}
	return true
}

// WaitIdle blocks until all admitted work is terminal (or the timeout
// elapses), returning whether idleness was reached. Crash counts as
// idle: there is nothing left to wait for.
func (s *Server) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.crashed.Load() {
			return true
		}
		if s.idle() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// Drain performs the graceful shutdown sequence: stop admission, wait
// for in-flight work up to the deadline (the remainder stays parked in
// the journal), fire the serve:drain crash point, checkpoint and close
// the WAL and journal.
func (s *Server) Drain(ctx context.Context) (*DrainReport, error) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.closed.Load() {
		return nil, fmt.Errorf("serve: already closed")
	}
	if s.crashed.Load() {
		return nil, fmt.Errorf("serve: crashed at %v", s.crashPt.Load())
	}
	start := time.Now()
	s.draining.Store(true)
	deadline := start.Add(s.cfg.DrainTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for time.Now().Before(deadline) && !s.crashed.Load() {
		if s.idle() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.runnerWG.Wait()
	if s.crashed.Load() {
		return nil, fmt.Errorf("serve: crashed during drain at %v", s.crashPt.Load())
	}
	if s.protect(func() { s.inject(fault.PointServeDrain) }) {
		return nil, fmt.Errorf("serve: crashed during drain at %v", s.crashPt.Load())
	}
	if recs, err := s.log.Records(); err == nil && len(recs) > 0 {
		if _, err := wal.TakeCheckpoint(s.log, s.table.Conflicts, nil, s.reg); err != nil {
			return nil, fmt.Errorf("serve: drain checkpoint: %w", err)
		}
	}
	if err := s.log.Close(); err != nil {
		return nil, err
	}
	if err := s.jr.close(); err != nil {
		return nil, err
	}
	s.closed.Store(true)
	s.reg.Inc(metrics.ServeDrains)
	rep := &DrainReport{Elapsed: time.Since(start)}
	s.mu.Lock()
	for _, sub := range s.subs {
		switch {
		case sub.final:
			rep.Finished++
		case sub.state == stateQueued:
			rep.Parked++
		}
	}
	s.mu.Unlock()
	if srv := s.httpSrv; srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	}
	return rep, nil
}

// Close drains (with the configured timeout) unless the server already
// stopped; a crashed server's files stay abandoned.
func (s *Server) Close() error {
	if s.closed.Load() || s.crashed.Load() {
		s.stopOnce.Do(func() { close(s.stopCh) })
		s.runnerWG.Wait()
		if srv := s.httpSrv; srv != nil {
			srv.Close()
		}
		return nil
	}
	_, err := s.Drain(context.Background())
	return err
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and
// serves the HTTP API in a background goroutine, returning the bound
// address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpLn = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) && !s.crashed.Load() {
			fmt.Fprintf(os.Stderr, "serve: http: %v\n", err)
		}
	}()
	return ln.Addr().String(), nil
}

// Accessors for batteries, tests and the CLI.

// Crashed reports whether an injected crash (or fatal internal error)
// killed the server, and at which point.
func (s *Server) Crashed() (string, bool) {
	if !s.crashed.Load() {
		return "", false
	}
	pt, _ := s.crashPt.Load().(string)
	return pt, true
}

// RecoveryReport returns the restart recovery report (nil on a fresh
// directory).
func (s *Server) RecoveryReport() *scheduler.RecoveryReport { return s.report }

// Resumed returns how many submissions restart re-admitted: parked
// ones resumed verbatim and crash-interrupted ones re-run as new
// incarnations.
func (s *Server) Resumed() (fresh, reruns int) { return s.resumed, s.reruns }

// Log exposes the raw file-backed WAL (battery judging).
func (s *Server) Log() wal.Log { return s.log }

// Federation exposes the surviving subsystem state (battery judging).
func (s *Server) Federation() *subsystem.Federation { return s.fed }

// Defs returns the process definitions of every journaled submission,
// in admission order (battery judging).
func (s *Server) Defs() []*process.Process {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.defsList()
}

// Metrics returns the server's registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// StatusOf returns one submission's status.
func (s *Server) StatusOf(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub, ok := s.subs[id]
	if !ok {
		return Status{}, false
	}
	return sub.status(), true
}

func (sub *submission) status() Status {
	name := sub.id
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return Status{
		ID: sub.id, Tenant: sub.tenant, Proc: name,
		State: sub.state, Committed: sub.state == stateCommitted,
		Final: sub.final, Restarts: sub.restarts,
		Recovered: sub.recovered, Resumed: sub.resumed,
		Seq: sub.seq, RunID: sub.runID, Error: sub.errMsg,
	}
}

// Statuses returns every submission's status in admission order,
// optionally filtered by tenant and state.
func (s *Server) Statuses(tenant, state string) []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		sub := s.subs[id]
		if tenant != "" && sub.tenant != tenant {
			continue
		}
		if state != "" && sub.state != state {
			continue
		}
		out = append(out, sub.status())
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
