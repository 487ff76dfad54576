package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"transproc/internal/activity"
	"transproc/internal/process"
	"transproc/internal/runtime"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// Scenario is one fully determined crash-torture case: a seeded
// workload, a fault plan and the engine/log flavour to run it under.
// ScenarioFor(seed) is a pure function, so a failing seed reproduces
// the exact same scenario anywhere.
type Scenario struct {
	Seed  int64
	Class string
	Mode  scheduler.Mode
	// Engine selects the execution engine: "engine" (sequential
	// discrete-event scheduler) or "runtime" (concurrent).
	Engine string
	// FileWAL runs over a file-backed log that is closed and reopened
	// across the crash (exercising torn-tail handling).
	FileWAL bool
	// GarbageTail appends a partial junk record to the file after the
	// crash instead of tearing the final record.
	GarbageTail bool
	// CrashRecoveryAfter, when positive, crashes the first Recover
	// pass after that many appended records; a second pass then
	// finishes the job.
	CrashRecoveryAfter int
	// CheckpointEvery / CheckpointLimit / CompactOnCheckpoint are
	// passed through to the engine config: fuzzy checkpoints every N
	// force-log appends, at most Limit of them (0 = unlimited), with
	// optional physical compaction after each.
	CheckpointEvery     int
	CheckpointLimit     int
	CompactOnCheckpoint bool
	// GroupCommit, when enabled, wraps the scenario's log in the
	// batching appender so crashes land inside coalesced flushes.
	GroupCommit wal.GroupCommit
	// Durable backs every subsystem with a file-backed heap store
	// (internal/store): the crash kills scheduler state AND the
	// subsystems' in-memory state, recovery reopens the pages and runs
	// scheduler.RecoverDurable, and CheckDurableStores verifies the
	// storage-level guarantees on top of CheckRecovered.
	Durable bool
	// StorePoolPages sets the buffer-pool size (0 = store default); a
	// tiny pool forces constant eviction traffic.
	StorePoolPages int
	// StoreFlushEach flushes the stores after every mutation,
	// maximizing the pages-ahead-of-log window recovery must undo.
	StoreFlushEach bool
	// TornStorePage flips one byte of one heap page after the crash —
	// a torn page write the reopened store must detect and repair.
	TornStorePage bool
	// StoreRecoveryPoint / StoreRecoveryCount arm a store crash point
	// for the FIRST recovery pass only (crash during
	// recovery-of-pages); a second pass must finish the job.
	StoreRecoveryPoint string
	StoreRecoveryCount int
	// StoreStress concentrates the workload (single subsystem, double
	// the processes) so its heap file spans multiple pages and a tiny
	// buffer pool must constantly evict.
	StoreStress bool
	Plan        Plan
}

// ScenarioFor derives the deterministic scenario of a seed. Nineteen
// scenario classes cycle by seed: WAL-budget crashes (mem and file,
// torn and garbage tails), every named crash point, concurrent-runtime
// kills, crash-during-recovery double faults, the checkpointing
// classes — crash mid-checkpoint, crash inside compaction's
// rename/dir-fsync window, a stale checkpoint under a long tail,
// crash during recovery-from-checkpoint — a crash between a
// group-commit batch write and its shared fsync, and the durable-store
// classes: a torn heap page after the crash, a crash inside a buffer
// pool eviction, pages flushed ahead of the log, and a crash during
// the page-recovery pass itself. Independently of the class, half of
// all scenarios run with group commit enabled so every crash flavour
// is also exercised through the batching appender.
func ScenarioFor(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))
	sc := Scenario{Seed: seed, Engine: "engine", Mode: scheduler.PRED}
	if seed%3 == 0 {
		sc.Mode = scheduler.PREDCascade
	}
	if seed%2 == 1 {
		sc.GroupCommit = wal.GroupCommit{MaxBatch: 2 + rng.Intn(15)}
	}
	budget := 5 + rng.Intn(140)
	hits := 1 + rng.Intn(40)
	sc.Plan.Seed = seed
	switch seed % 19 {
	case 0:
		sc.Class = "wal-budget"
		sc.Plan.CrashAfterWALRecords = budget
	case 1:
		sc.Class = "before-forcelog"
		sc.Plan.CrashAtPoint = PointBeforeForceLog
		sc.Plan.CrashAtCount = hits
	case 2:
		sc.Class = "after-forcelog"
		sc.Plan.CrashAtPoint = PointAfterForceLog
		sc.Plan.CrashAtCount = hits
	case 3:
		sc.Class = "2pc-after-decision"
		sc.Plan.CrashAtPoint = PointAfterDecision
		sc.Plan.CrashAtCount = 1 + rng.Intn(3)
	case 4:
		sc.Class = "2pc-mid-resolve"
		sc.Plan.CrashAtPoint = PointMidResolve
		sc.Plan.CrashAtCount = 1 + rng.Intn(3)
	case 5:
		sc.Class = "file-torn-tail"
		sc.FileWAL = true
		sc.Plan.CrashAfterWALRecords = budget
		sc.Plan.TornTailBytes = 1 + rng.Intn(30)
	case 6:
		sc.Class = "file-garbage-tail"
		sc.FileWAL = true
		sc.GarbageTail = true
		sc.Plan.CrashAfterWALRecords = budget
	case 7:
		sc.Class = "runtime-kill-dispatch"
		sc.Engine = "runtime"
		sc.Plan.KillAtDispatch = 1 + rng.Intn(30)
	case 8:
		sc.Class = "runtime-wal-budget"
		sc.Engine = "runtime"
		sc.Plan.CrashAfterWALRecords = budget
	case 9:
		sc.Class = "crash-during-recovery"
		sc.Plan.CrashAfterWALRecords = budget
		sc.CrashRecoveryAfter = 1 + rng.Intn(12)
	case 10:
		// Crash inside the checkpoint itself: either before the build's
		// log snapshot or right before the checkpoint record append
		// (the fuzzy window). Recovery must come up from whatever made
		// it to disk — the previous checkpoint or a full replay.
		sc.Class = "ckpt-mid-build"
		sc.CheckpointEvery = 4 + rng.Intn(8)
		sc.FileWAL = rng.Intn(2) == 0
		sc.Plan.CrashAtPoint = PointCheckpointBuild
		if rng.Intn(2) == 0 {
			sc.Plan.CrashAtPoint = PointCheckpointAppend
		}
		sc.Plan.CrashAtCount = 1 + rng.Intn(3)
	case 11:
		// Crash inside compaction's atomic-swap window: after the temp
		// file is durable but before the rename, or after the rename
		// but before the parent-dir fsync. Either the old or the new
		// complete log must be what recovery reopens.
		sc.Class = "compact-crash"
		sc.FileWAL = true
		sc.CheckpointEvery = 4 + rng.Intn(8)
		sc.CompactOnCheckpoint = true
		sc.Plan.CrashAtPoint = PointCompactRename
		if rng.Intn(2) == 0 {
			sc.Plan.CrashAtPoint = PointCompactDirSync
		}
		sc.Plan.CrashAtCount = 1 + rng.Intn(2)
	case 12:
		// A checkpoint taken early and never again (CheckpointLimit 1):
		// the crash hits under a long post-checkpoint tail, so recovery
		// replays a stale checkpoint plus many tail records.
		sc.Class = "stale-ckpt-long-tail"
		sc.CheckpointEvery = 4 + rng.Intn(4)
		sc.CheckpointLimit = 1
		sc.FileWAL = rng.Intn(2) == 0
		sc.CompactOnCheckpoint = sc.FileWAL && rng.Intn(2) == 0
		sc.Plan.CrashAfterWALRecords = 40 + rng.Intn(100)
		if sc.FileWAL && rng.Intn(2) == 0 {
			sc.Plan.TornTailBytes = 1 + rng.Intn(30)
		}
	case 13:
		// Crash during recovery-from-checkpoint: the run checkpoints
		// (and sometimes compacts), crashes on a WAL budget, and the
		// first Recover pass dies too; the second pass must finish from
		// checkpoint + tail + the interrupted pass's records.
		sc.Class = "ckpt-recovery-crash"
		if rng.Intn(2) == 0 {
			sc.Engine = "runtime"
		}
		sc.CheckpointEvery = 4 + rng.Intn(8)
		sc.CompactOnCheckpoint = rng.Intn(2) == 0
		sc.Plan.CrashAfterWALRecords = budget
		sc.CrashRecoveryAfter = 1 + rng.Intn(12)
	case 14:
		// Crash between a group-commit batch's buffered write and its
		// shared fsync: every record of the in-flight batch is lost,
		// but none of them was acknowledged (Append only returns after
		// the fsync), so recovery must see a merely shorter log. The
		// concurrent runtime drives real multi-record batches.
		sc.Class = "group-fsync"
		sc.Engine = "runtime"
		sc.GroupCommit = wal.GroupCommit{MaxBatch: 2 + rng.Intn(15)}
		sc.FileWAL = rng.Intn(2) == 0
		sc.Plan.CrashAtPoint = wal.PointGroupFsync
		sc.Plan.CrashAtCount = 1 + rng.Intn(20)
	case 15:
		// Crash on a WAL budget, then flip one byte of a subsystem heap
		// page: the torn page must be detected by its checksum at
		// reopen, repaired, and its lost records redone from the WAL.
		// Eager flushing guarantees the heap files hold real pages at
		// crash time — otherwise there is nothing to tear.
		sc.Class = "store-torn-page"
		sc.Durable = true
		sc.StoreFlushEach = true
		sc.Plan.CrashAfterWALRecords = budget
		sc.TornStorePage = true
		sc.FileWAL = rng.Intn(2) == 0
	case 16:
		// Crash inside the buffer pool under eviction pressure: with a
		// single frame, every fetch of a second page must first write
		// back the dirty resident one (eviction is the only way pages
		// reach the device here — no eager flushing), and the crash hits
		// an eviction write-back, a page write, or a fresh-page
		// allocation.
		sc.Class = "store-evict-crash"
		sc.Durable = true
		sc.StorePoolPages = 1
		sc.StoreStress = true
		pts := []string{PointStoreEvict, PointStorePageWrite, PointStoreAlloc}
		sc.Plan.CrashAtPoint = pts[rng.Intn(len(pts))]
		sc.Plan.CrashAtCount = 1 + rng.Intn(12)
		if sc.Plan.CrashAtPoint == PointStoreAlloc {
			// The heap grows by a page only a couple of times per run.
			sc.Plan.CrashAtCount = 1 + rng.Intn(2)
		}
	case 17:
		// Pages ahead of the log: every store mutation flushes eagerly
		// and the crash lands right before a force-log append, so the
		// pages can carry effects whose log record never made it — the
		// page-level undo path.
		sc.Class = "store-flush-vs-wal"
		sc.Durable = true
		sc.StoreFlushEach = true
		sc.Plan.CrashAtPoint = PointBeforeForceLog
		sc.Plan.CrashAtCount = hits
	case 18:
		// Double fault during the page-recovery pass: the first
		// RecoverDurable dies at a store crash point (mid-reconcile or
		// mid-flush); the second pass must finish from whatever state
		// reached the disk. Eager flushing during the run leaves real
		// pre-crash pages for the interrupted pass to reconcile against.
		sc.Class = "store-recovery-crash"
		sc.Durable = true
		sc.StoreFlushEach = true
		sc.Plan.CrashAfterWALRecords = budget
		sc.StoreRecoveryPoint = PointStorePageWrite
		if rng.Intn(2) == 0 {
			sc.StoreRecoveryPoint = PointStorePageFsync
		}
		sc.StoreRecoveryCount = 1 + rng.Intn(4)
	}
	// Deterministic permanent failures for roughly a third of the
	// processes (compensatable or pivot forward services only, like
	// the differential battery: retriables fail only transiently and
	// compensations never, per the paper's perfect-compensation
	// assumption).
	sc.Plan.SubsystemFail = chooseFailures(sc)
	if sc.Engine == "runtime" {
		sc.Mode = scheduler.PRED // cascading aborts run on the sequential engine only
	}
	return sc
}

// tortureProfile is the workload a scenario runs. Store-stress
// scenarios concentrate everything into a single subsystem with twice
// the processes, so one heap file accumulates enough records (2PC
// fates, data items) to span multiple pages.
func tortureProfile(sc Scenario) workload.Profile {
	p := workload.DefaultProfile(sc.Seed)
	p.Processes = 12
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.10
	if sc.StoreStress {
		p.Subsystems = 1
		p.Processes = 48
	}
	return p
}

// chooseFailures picks the deterministic failure rules of a seed
// against its own workload.
func chooseFailures(sc Scenario) []SubsystemFail {
	w, err := workload.Generate(tortureProfile(sc))
	if err != nil {
		return nil
	}
	seed := sc.Seed
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	var rules []SubsystemFail
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
		rules = append(rules, SubsystemFail{
			Proc:    string(j.Proc.ID),
			Service: candidates[rng.Intn(len(candidates))],
		})
	}
	return rules
}

// tortureWorld regenerates a scenario's deterministic world: the
// seeded workload with its failure rules applied and the process
// definitions recovery needs. Durable scenarios rebuild it after every
// simulated crash — a crash kills the subsystems' in-memory state too,
// so recovery starts from a factory-fresh federation plus whatever the
// heap files retained.
func tortureWorld(sc Scenario) (*subsystem.Federation, []scheduler.Job, []*process.Process, error) {
	w, err := workload.Generate(tortureProfile(sc))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("seed %d: generating workload: %w", sc.Seed, err)
	}
	for _, r := range sc.Plan.SubsystemFail {
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
	return w.Fed, w.Jobs, defs, nil
}

// RunScenario executes one scenario end to end: run until the injected
// crash (or clean finish), mangle the log tail where the plan says so,
// recover — possibly crashing and re-recovering — and check every
// recovery guarantee. dir is where file-backed logs and heap files
// live (a temp dir is created under os.TempDir when empty). The
// returned error describes the violated invariant; nil means the
// scenario passed.
func RunScenario(sc Scenario, dir string) error {
	fed, jobs, defs, err := tortureWorld(sc)
	if err != nil {
		return err
	}

	if dir == "" && (sc.FileWAL || sc.Durable) {
		td, err := os.MkdirTemp("", "torture")
		if err != nil {
			return fmt.Errorf("seed %d: %w", sc.Seed, err)
		}
		defer os.RemoveAll(td)
		dir = td
	}
	var inner wal.Log
	var path string
	if sc.FileWAL {
		path = filepath.Join(dir, fmt.Sprintf("wal-%d.log", sc.Seed))
		fl, err := wal.OpenFile(path, false)
		if err != nil {
			return fmt.Errorf("seed %d: opening log: %w", sc.Seed, err)
		}
		inner = fl
	} else {
		inner = wal.NewMemLog()
	}
	fw := WrapWAL(inner, sc.Plan.CrashAfterWALRecords)
	inj := NewInjector(sc.Plan)
	if sc.Durable {
		if err := attachStores(fed, sc, dir, fw, inj); err != nil {
			return fmt.Errorf("seed %d (%s): %w", sc.Seed, sc.Class, err)
		}
	}

	crashed, err := runUntilCrash(sc, fed, fw, inj, jobs)
	if err != nil {
		return fmt.Errorf("seed %d (%s): run: %w", sc.Seed, sc.Class, err)
	}
	if sc.Durable {
		// The crash (or shutdown) drops every dirty pool page: only what
		// reached the device survives into recovery. A clean finish is
		// treated the same way — an unflushed shutdown — so every durable
		// scenario recovers pages, not memory.
		abandonStores(fed)
		if crashed && sc.TornStorePage {
			if err := tearStorePage(fed, sc, dir); err != nil {
				return fmt.Errorf("seed %d (%s): tearing store page: %w", sc.Seed, sc.Class, err)
			}
		}
	}

	// Reopen across the crash; torn and garbage tails only exist for
	// file-backed logs and only make sense when the run actually
	// crashed (a clean run's final append returned — tearing it would
	// simulate losing an acknowledged write, which no log survives).
	recLog := inner
	if sc.FileWAL {
		if err := inner.Close(); err != nil {
			return fmt.Errorf("seed %d: closing log: %w", sc.Seed, err)
		}
		if crashed {
			if sc.Plan.TornTailBytes > 0 {
				if err := tearTail(path, sc.Plan.TornTailBytes); err != nil {
					return fmt.Errorf("seed %d: tearing tail: %w", sc.Seed, err)
				}
			}
			if sc.GarbageTail {
				if err := appendGarbage(path); err != nil {
					return fmt.Errorf("seed %d: garbage tail: %w", sc.Seed, err)
				}
			}
		}
		fl, err := wal.OpenFile(path, false)
		if err != nil {
			return fmt.Errorf("seed %d: reopening log: %w", sc.Seed, err)
		}
		recLog = fl
		defer fl.Close()
	}
	preRecs, err := recLog.Records()
	if err != nil {
		return fmt.Errorf("seed %d: reading pre-recovery log: %w", sc.Seed, err)
	}
	// Invariants run in expanded coordinates (checkpoint live set +
	// post-horizon tail); the full-replay differential also needs the
	// boundary in raw non-checkpoint coordinates.
	pre := len(wal.Expand(preRecs).Records)
	preFull := 0
	for _, r := range preRecs {
		if r.Type != wal.RecCheckpoint {
			preFull++
		}
	}

	// First recovery, optionally crashed mid-way by a fresh WAL budget
	// (double-fault: the recovering system dies too) and/or — durable
	// scenarios only — by an armed store crash point inside the
	// page-recovery pass.
	if crashed && (sc.CrashRecoveryAfter > 0 || (sc.Durable && sc.StoreRecoveryCount > 0)) {
		var rw wal.Log = recLog
		if sc.CrashRecoveryAfter > 0 {
			rw = WrapWAL(recLog, sc.CrashRecoveryAfter)
		}
		rfed, rdefs := fed, defs
		// The armed store crash point can fire anywhere in the pass —
		// including inside AttachStore's own write-throughs while the
		// pages are being reopened — so the whole reopen+recover runs
		// under Protect.
		rerr := Protect(func() error {
			if sc.Durable {
				ffed, _, fdefs, err := tortureWorld(sc)
				if err != nil {
					return err
				}
				rfed, rdefs = ffed, fdefs
				recInj := NewInjector(Plan{CrashAtPoint: sc.StoreRecoveryPoint, CrashAtCount: sc.StoreRecoveryCount})
				if err := reopenStores(rfed, sc, dir, rw, recInj); err != nil {
					return fmt.Errorf("reopening stores for interrupted recovery: %w", err)
				}
				_, e := scheduler.RecoverDurable(rfed, rw, rdefs, nil)
				return e
			}
			_, e := scheduler.Recover(rfed, rw, rdefs)
			return e
		})
		if rerr != nil {
			if _, isCrash := AsCrash(rerr); !isCrash {
				return fmt.Errorf("seed %d (%s): interrupted recovery: %w", sc.Seed, sc.Class, rerr)
			}
		}
		if sc.Durable {
			abandonStores(rfed)
		}
	}
	if sc.Durable {
		// Final recovery on a fresh federation over the surviving pages;
		// no injector this time — the system finally stays up.
		ffed, _, fdefs, err := tortureWorld(sc)
		if err != nil {
			return err
		}
		if err := reopenStores(ffed, sc, dir, recLog, nil); err != nil {
			return fmt.Errorf("seed %d (%s): reopening stores: %w", sc.Seed, sc.Class, err)
		}
		fed, defs = ffed, fdefs
		if _, err := scheduler.RecoverDurable(fed, recLog, defs, nil); err != nil {
			return fmt.Errorf("seed %d (%s): recovery: %w", sc.Seed, sc.Class, err)
		}
	} else if _, err := scheduler.Recover(fed, recLog, defs); err != nil {
		return fmt.Errorf("seed %d (%s): recovery: %w", sc.Seed, sc.Class, err)
	}

	if err := CheckRecovered(CheckInput{
		Fed: fed, Log: recLog, Defs: defs, PreCrashRecords: pre,
		PreCrashFull: preFull, Compacted: sc.CompactOnCheckpoint,
	}); err != nil {
		return fmt.Errorf("seed %d (%s): %w", sc.Seed, sc.Class, err)
	}
	if sc.Durable {
		if err := CheckDurableStores(fed); err != nil {
			return fmt.Errorf("seed %d (%s): %w", sc.Seed, sc.Class, err)
		}
	}
	return nil
}

// tortureMaxRestarts bounds per-process restarts in torture runs.
// Permanently failed services (SubsystemFail rules) make their process
// retry until the budget is exhausted and then group-abort; a large
// budget turns that into a retry storm whose multi-thousand-record log
// makes the PRED invariant check (quadratic in prefixes) take minutes
// for a single seed. 24 keeps the exhaustion path exercised while
// bounding the schedule the checker must reduce.
const tortureMaxRestarts = 24

// runUntilCrash drives the scenario's engine until the injected crash
// or clean completion; crashed reports which.
func runUntilCrash(sc Scenario, fed *subsystem.Federation, log wal.Log, inj *Injector, jobs []scheduler.Job) (crashed bool, err error) {
	switch sc.Engine {
	case "runtime":
		r, err := runtime.New(fed, runtime.Config{
			Mode: sc.Mode, Log: log, MaxRestarts: tortureMaxRestarts, Inject: inj.Point,
			CheckpointEvery: sc.CheckpointEvery, CheckpointLimit: sc.CheckpointLimit,
			CompactOnCheckpoint: sc.CompactOnCheckpoint, GroupCommit: sc.GroupCommit,
		})
		if err != nil {
			return false, err
		}
		_, err = r.Run(context.Background(), jobs)
		if err == nil {
			return false, nil
		}
		if errors.Is(err, scheduler.ErrCrashed) {
			return true, nil
		}
		return false, err
	default:
		eng, err := scheduler.New(fed, scheduler.Config{
			Mode: sc.Mode, Log: log, MaxRestarts: tortureMaxRestarts, Inject: inj.Point,
			CheckpointEvery: sc.CheckpointEvery, CheckpointLimit: sc.CheckpointLimit,
			CompactOnCheckpoint: sc.CompactOnCheckpoint, GroupCommit: sc.GroupCommit,
		})
		if err != nil {
			return false, err
		}
		_, err = eng.RunJobs(jobs)
		if err == nil {
			return false, nil
		}
		if errors.Is(err, scheduler.ErrCrashed) {
			return true, nil
		}
		return false, err
	}
}

// tearTail truncates up to n bytes off the file's final record (never
// reaching into earlier, acknowledged records): the write that was in
// flight when the crash hit reached the disk only partially.
func tearTail(path string, n int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	// The final record spans from after the second-to-last newline to
	// the end (including its own terminating newline).
	end := len(data)
	body := data[:end-1] // strip the final '\n' before searching
	lastStart := 0
	for i := len(body) - 1; i >= 0; i-- {
		if body[i] == '\n' {
			lastStart = i + 1
			break
		}
	}
	lastLen := end - lastStart
	if n > lastLen {
		n = lastLen
	}
	return os.Truncate(path, int64(end-n))
}

// appendGarbage writes a partial junk record with no terminating
// newline — the torn write left arbitrary bytes behind.
func appendGarbage(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(`{"lsn":9999,"type":2,"pr`)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Summary aggregates a torture batch.
type Summary struct {
	Scenarios int            `json:"scenarios"`
	Crashed   int            `json:"crashed"`
	Clean     int            `json:"clean"`
	Failures  []string       `json:"failures,omitempty"`
	ByClass   map[string]int `json:"byClass"`
}

// TortureOpts force checkpointing onto every scenario of a batch (on
// top of whatever the scenario class already configures), so the whole
// battery can be re-run with checkpoints live under every crash class.
type TortureOpts struct {
	// CheckpointEvery forces fuzzy checkpoints every N force-log
	// appends on scenarios that don't already checkpoint.
	CheckpointEvery int
	// CheckpointLimit caps forced checkpoints (0 = unlimited).
	CheckpointLimit int
	// Compact compacts after every checkpoint on file-backed scenarios.
	Compact bool
	// Durable forces file-backed subsystem stores onto every scenario,
	// so the whole battery also runs with durable pages under every
	// crash class.
	Durable bool
	// Progress, when set, is called with each seed before its scenario
	// runs; the CLI uses it to report the in-flight reproducing seed
	// when the battery is interrupted.
	Progress func(seed int64, class string)
}

// Apply overlays the forced options onto a scenario without disturbing
// classes that configure their own checkpoint cadence.
func (o TortureOpts) Apply(sc *Scenario) {
	if o.CheckpointEvery > 0 && sc.CheckpointEvery == 0 {
		sc.CheckpointEvery = o.CheckpointEvery
		sc.CheckpointLimit = o.CheckpointLimit
	}
	if o.Compact && sc.CheckpointEvery > 0 {
		sc.CompactOnCheckpoint = true
	}
	if o.Durable {
		sc.Durable = true
	}
}

// RunTorture runs the scenarios of seeds [first, first+n) and collects
// a summary; every failure message embeds the reproducing seed.
func RunTorture(first, n int64, dir string) Summary {
	return RunTortureOpts(first, n, dir, TortureOpts{})
}

// RunTortureOpts is RunTorture with forced checkpoint options overlaid
// on every scenario.
func RunTortureOpts(first, n int64, dir string, opts TortureOpts) Summary {
	sum := Summary{ByClass: make(map[string]int)}
	for seed := first; seed < first+n; seed++ {
		sc := ScenarioFor(seed)
		opts.Apply(&sc)
		if opts.Progress != nil {
			opts.Progress(seed, sc.Class)
		}
		sum.Scenarios++
		sum.ByClass[sc.Class]++
		// Armed-plan attribution (the scenario checks its invariants
		// either way; a plan can legitimately outlive the run, e.g. a
		// budget larger than the log).
		if sc.Plan.CrashAfterWALRecords > 0 || sc.Plan.CrashAtPoint != "" || sc.Plan.KillAtDispatch > 0 {
			sum.Crashed++
		} else {
			sum.Clean++
		}
		if err := RunScenario(sc, dir); err != nil {
			sum.Failures = append(sum.Failures, err.Error())
		}
	}
	return sum
}
