package federation

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"transproc/internal/chaos"
	"transproc/internal/fault"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// CrashSpec arms a crash point on one node's fault injector.
type CrashSpec struct {
	Node  int    // node index
	Point string // crash point name (fed:dispatch, twopc:after-decision, ...)
	Count int    // 1-based hit count (0 = first)
}

// Config configures a cluster run.
type Config struct {
	// Nodes is the scheduler-node count; processes are partitioned
	// round-robin by arrival rank.
	Nodes int
	// Mode is the scheduling policy; PRED (the zero value) is the only
	// one the hub accepts.
	Mode policy.Mode
	// MaxRestarts per origin process; MaxStalls bounds cluster-wide
	// victim designations.
	MaxRestarts int
	MaxStalls   int
	Metrics     *metrics.Registry
	// Wire is the transport fault plan, shared by all nodes (fates are
	// keyed by node name, so nodes see independent streams).
	Wire chaos.Plan
	// Crash arms a node-side crash point.
	Crash CrashSpec
	// HubKill arms a hub-side crash point (hub:dispatch, hub:decision,
	// hub:resolve — Node is ignored). When it fires, the hub dies
	// mid-handler (kill -9 semantics: no response, in-memory state
	// lost), the cluster monitor reopens a new incarnation from the
	// stitched WALs plus the hub journal, rebinds the same address, and
	// the nodes ride through via stale-epoch bounces and re-attachment.
	HubKill CrashSpec
	// HubJournal is the hub's force-logged side channel (default: a
	// fresh MemJournal).
	HubJournal HubJournal
	// LeaseTTL enables lease-based membership: a node silent for this
	// long is declared dead and its safe orphans re-homed. Zero
	// disables.
	LeaseTTL time.Duration
	// HeartbeatEvery makes nodes refresh their lease while otherwise
	// silent. Zero disables.
	HeartbeatEvery time.Duration
	// ReconnectAttempts bounds a client's consecutive connection
	// failures (0 = default 256) — must outlast a hub reopen.
	ReconnectAttempts int
	// OnReopen, if set, judges every hub reopen at its boundary (e.g.
	// fault.CheckRecovered over the reopen's stitched history). An error
	// fails the run.
	OnReopen func(*ReopenReport) error
	// OnHubDown / OnHubUp observe the hub availability window (the serve
	// layer degrades its readiness probe between them).
	OnHubDown func()
	OnHubUp   func()
	// NodeWAL supplies per-node logs (default: fresh MemLogs).
	NodeWAL        func(node int) wal.Log
	DispatchBudget int
	ControlBudget  int
}

// RunResult is the aggregate of a cluster run.
type RunResult struct {
	// Outcomes by incarnation id across all nodes.
	Outcomes map[process.ID]*scheduler.Outcome
	// NodeErrs holds per-node driver errors (nil entries for clean exits).
	NodeErrs []error
	// Crashed flags nodes stopped by an injected crash point.
	Crashed []bool
	// HubRestarts counts hub kill→reopen cycles ridden out.
	HubRestarts int
	// HubErr reports a failed reopen (or a failed OnReopen judge).
	HubErr error
	// Reattached sums the nodes' hub-restart recovery rounds.
	Reattached int
}

// Cluster wires a hub, its TCP server and N scheduler nodes over one
// subsystem federation.
type Cluster struct {
	cfg    Config
	fed    *subsystem.Federation
	defs   []*process.Process
	nodes  []*Node
	hubCfg HubConfig

	// mu guards the hub/server/log fields the reopen cycle swaps while
	// node goroutines are still running.
	mu          sync.Mutex
	hub         *Hub
	server      *Server
	logs        []wal.Log
	hubRestarts int
	hubErr      error
}

// NewCluster partitions the process definitions round-robin across
// cfg.Nodes scheduler nodes (arrival rank = definition index, matching
// the sequential oracle's admission order) and starts the hub server.
func NewCluster(fed *subsystem.Federation, defs []*process.Process, cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	if cfg.HubJournal == nil {
		cfg.HubJournal = NewMemJournal()
	}
	hubCfg := HubConfig{
		Mode: cfg.Mode, MaxStalls: cfg.MaxStalls, Metrics: cfg.Metrics,
		Journal: cfg.HubJournal, LeaseTTL: cfg.LeaseTTL,
	}
	var hubInject func(string)
	if cfg.HubKill.Point != "" {
		inj := fault.NewInjector(fault.Plan{CrashAtPoint: cfg.HubKill.Point, CrashAtCount: cfg.HubKill.Count})
		hubInject = inj.Point
	}
	firstCfg := hubCfg
	firstCfg.Inject = hubInject // only the first incarnation is armed
	hub, err := NewHub(fed, defs, firstCfg)
	if err != nil {
		return nil, err
	}
	server, err := Serve(hub)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, fed: fed, defs: defs, hub: hub, server: server, hubCfg: hubCfg}
	defsByID := make(map[string]*process.Process, len(defs))
	for _, d := range defs {
		defsByID[string(d.ID)] = d
	}
	jobs := make([][]NodeJob, cfg.Nodes)
	for i, def := range defs {
		n := i % cfg.Nodes
		jobs[n] = append(jobs[n], NodeJob{Def: def, Arrival: i})
	}
	for i := 0; i < cfg.Nodes; i++ {
		var log wal.Log
		if cfg.NodeWAL != nil {
			log = cfg.NodeWAL(i)
		} else {
			log = wal.NewMemLog()
		}
		c.logs = append(c.logs, log)
		var inject func(string)
		if cfg.Crash.Point != "" && cfg.Crash.Node == i {
			inj := fault.NewInjector(fault.Plan{CrashAtPoint: cfg.Crash.Point, CrashAtCount: cfg.Crash.Count})
			inject = inj.Point
		}
		c.nodes = append(c.nodes, NewNode(NodeConfig{
			ID:   uint32(i + 1),
			Name: fmt.Sprintf("node%d", i),
			Addr: server.Addr(),
			WAL:  log, Jobs: jobs[i],
			MaxRestarts:    cfg.MaxRestarts,
			Wire:           cfg.Wire,
			DispatchBudget: cfg.DispatchBudget, ControlBudget: cfg.ControlBudget,
			Inject:            inject,
			Metrics:           cfg.Metrics,
			Defs:              defsByID,
			HeartbeatEvery:    cfg.HeartbeatEvery,
			ReconnectAttempts: cfg.ReconnectAttempts,
		}))
	}
	return c, nil
}

// Hub exposes the current hub incarnation (diagnostics).
func (c *Cluster) Hub() *Hub {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hub
}

// NodeLog returns node i's WAL.
func (c *Cluster) NodeLog(i int) wal.Log {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logs[i]
}

// Run drives all nodes concurrently to completion. A node stopped by a
// crash point is declared dead at the hub (NodeDown), and the survivors
// keep draining — blocked ones through victim aborts — so the run
// always terminates. A monitor goroutine watches for a hub kill and
// runs the reopen cycle (close server → recover from stitched WALs +
// journal → rebind the same address); with LeaseTTL set it also sweeps
// membership leases.
func (c *Cluster) Run() *RunResult {
	res := &RunResult{
		Outcomes: make(map[process.ID]*scheduler.Outcome),
		NodeErrs: make([]error, len(c.nodes)),
		Crashed:  make([]bool, len(c.nodes)),
	}
	stop := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go c.monitor(stop, &monWG)
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			err := n.Run()
			if n.Crashed {
				res.Crashed[i] = true
				// With leases enabled, lease expiry IS the death
				// detector: the hub notices the silence on its own.
				// Without leases the driver declares the death, as a
				// deployment's supervisor would.
				if c.cfg.LeaseTTL <= 0 {
					c.Hub().NodeDown(uint32(i + 1))
				}
				return
			}
			res.NodeErrs[i] = err
		}(i, n)
	}
	wg.Wait()
	close(stop)
	monWG.Wait()
	for _, n := range c.nodes {
		for id, out := range n.Outcomes {
			res.Outcomes[id] = out
		}
		res.Reattached += n.Reattached
	}
	c.mu.Lock()
	res.HubRestarts = c.hubRestarts
	res.HubErr = c.hubErr
	c.mu.Unlock()
	return res
}

// monitor rides shotgun on a run: it reopens the hub when a kill point
// fires and periodically sweeps membership leases.
func (c *Cluster) monitor(stop chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	var sweep <-chan time.Time
	if c.cfg.LeaseTTL > 0 {
		t := time.NewTicker(c.cfg.LeaseTTL / 2)
		defer t.Stop()
		sweep = t.C
	}
	for {
		h := c.Hub()
		select {
		case <-stop:
			return
		case <-sweep:
			c.Hub().ExpireLeases()
		case <-h.KilledCh():
			if err := c.reopen(); err != nil {
				c.mu.Lock()
				c.hubErr = err
				c.mu.Unlock()
				return
			}
		}
	}
}

// reopen is the hub restart cycle after a kill: sever every client
// (in-flight handlers drain under Server.Close), give the nodes a
// moment to land force-logs for responses already on the wire (both
// sides of that race are legal crash windows — the reopen's recovery
// resolves either), rebuild the hub from the stitched WALs plus the
// journal, file the re-stamped recovery tail as one more log for future
// stitches, and rebind the dead incarnation's address.
func (c *Cluster) reopen() error {
	if c.cfg.OnHubDown != nil {
		c.cfg.OnHubDown()
	}
	c.mu.Lock()
	srv := c.server
	logs := append([]wal.Log(nil), c.logs...)
	c.mu.Unlock()
	addr := srv.Addr()
	srv.Close()
	time.Sleep(5 * time.Millisecond)
	hub, rep, err := ReopenHub(c.fed, c.defs, logs, c.hubCfg)
	if err != nil {
		return err
	}
	if c.cfg.OnReopen != nil {
		if err := c.cfg.OnReopen(rep); err != nil {
			return err
		}
	}
	tailLog := wal.NewMemLog()
	for _, r := range rep.Tail {
		r.LSN = 0
		if _, err := tailLog.Append(r); err != nil {
			return err
		}
	}
	// Rebind the same address; the dead listener can take a moment to
	// release it.
	var server *Server
	for i := 0; ; i++ {
		server, err = ServeAddr(hub, addr)
		if err == nil {
			break
		}
		if i >= 200 {
			return fmt.Errorf("federation: reopen rebind %s: %w", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.mu.Lock()
	c.hub = hub
	c.server = server
	c.logs = append(c.logs, tailLog)
	c.hubRestarts++
	c.mu.Unlock()
	if c.cfg.OnHubUp != nil {
		c.cfg.OnHubUp()
	}
	return nil
}

// Close shuts the server down.
func (c *Cluster) Close() {
	c.mu.Lock()
	srv := c.server
	c.mu.Unlock()
	srv.Close()
}

// Stitched merges the per-node WALs (plus any reopen recovery tails)
// into one global history by sorting on the hub-issued stamps (stable,
// so a node's same-stamp records — which cannot exist — would keep
// their local order). Records appended by a later recovery pass carry
// stamp zero and land at the front; callers stitch before recovering.
func (c *Cluster) Stitched() ([]wal.Record, error) {
	c.mu.Lock()
	logs := append([]wal.Log(nil), c.logs...)
	c.mu.Unlock()
	var all []wal.Record
	for _, log := range logs {
		recs, err := log.Records()
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Stamp < all[j].Stamp })
	return all, nil
}

// StitchedLog materializes the stitched history into a fresh MemLog and
// returns it with the record count (the pre-recovery boundary for
// fault.CheckRecovered).
func (c *Cluster) StitchedLog() (*wal.MemLog, int, error) {
	recs, err := c.Stitched()
	if err != nil {
		return nil, 0, err
	}
	log := wal.NewMemLog()
	for _, r := range recs {
		r.LSN = 0
		if _, err := log.Append(r); err != nil {
			return nil, 0, err
		}
	}
	return log, len(recs), nil
}

// Recover runs the single-node crash recovery over the stitched global
// history and the surviving federation state — the composed recovery:
// per-node logs merge into one history the existing machinery consumes
// unchanged.
func (c *Cluster) Recover() (*wal.MemLog, int, *scheduler.RecoveryReport, error) {
	log, pre, err := c.StitchedLog()
	if err != nil {
		return nil, 0, nil, err
	}
	report, err := scheduler.Recover(c.fed, log, c.defs)
	return log, pre, report, err
}
