// Package scheduler implements the transactional process scheduler the
// paper's correctness criterion is designed for: an online scheduler
// that executes processes against transactional subsystems while
// maintaining prefix-reducibility (PRED) of the observed process
// schedule — and therefore serializability and process-recoverability
// (Theorem 1).
//
// The PRED protocol operationalizes the paper's results:
//
//   - conflicting activities are ordered and the process-level conflict
//     graph is kept acyclic (serializability);
//   - an activity may conflict with an executed activity of an *active*
//     process only when that process can provably no longer invalidate
//     it — it is forward-recoverable and none of its potential recovery
//     services conflicts (the quasi-commit exploitation of Example 10) —
//     or, in cascading mode, when the new activity is compensatable
//     (Lemma 1.2) and the scheduler accepts a cascading abort;
//   - commits of non-compensatable activities are deferred and performed
//     atomically per process with a two phase commit protocol once every
//     conflicting predecessor process has terminated (Lemma 1,
//     Section 3.5);
//   - compensating activities execute in reverse order of their base
//     activities, also across processes (Lemma 2), and before
//     conflicting retriable forward-recovery activities (Lemma 3);
//   - every decision is written to a write-ahead log first, so a crash
//     is resolved by the group abort of Definition 8.2b (backward
//     completion of B-REC processes, forward completion of F-REC
//     processes, presumed-commit/abort resolution of in-doubt
//     transactions).
//
// Baselines for the benchmark harness: a serial scheduler, a
// conservative process-level locking scheduler, and a CC-only scheduler
// that orders conflicts for serializability but ignores recovery (the
// approach of [AAHD97] the paper argues is insufficient).
package scheduler

import (
	"transproc/internal/metrics"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// Mode selects the scheduling policy; the modes and their names are
// defined once, in the policy layer.
type Mode = policy.Mode

// The scheduling modes (see policy.Mode).
const (
	PRED         = policy.PRED
	PREDCascade  = policy.PREDCascade
	Serial       = policy.Serial
	Conservative = policy.Conservative
	CCOnly       = policy.CCOnly
)

// Config parameterizes an engine run.
type Config struct {
	Mode Mode
	// Log is the scheduler's write-ahead log; defaults to an in-memory
	// log.
	Log wal.Log
	// MaxRestarts bounds per-process restarts after cascading, wound or
	// victim aborts; beyond it the process terminates aborted.
	// Restarts re-enter with exponential backoff. Default 8.
	MaxRestarts int
	// CrashAfterEvents, when positive, stops the run abruptly after
	// that many invocation completions, simulating a scheduler crash;
	// subsystem and log state survive for recovery.
	CrashAfterEvents int
	// BlockPivots switches the PRED modes from "execute non-compensatable
	// activities into the prepared state and defer their commit" to
	// "do not even execute them while conflicting predecessors are
	// active" (the ablation of the deferred-commit design).
	BlockPivots bool
	// WeakOrder executes activity invocations under the weak order of
	// Section 3.6: conflicting local transactions may overlap inside a
	// subsystem, with the commit order enforced by the subsystem
	// (commit-order serializability). When a weakly preceding
	// transaction aborts, overlapped dependents are rolled back and
	// re-invoked — not treated as failures of their processes. Applies
	// to the PRED-family modes.
	WeakOrder bool
	// Metrics is the observability registry the engine (and the
	// subsystems, 2PC coordinator and WAL it drives) records counters,
	// histograms and the decision trace into. nil (the default) is a
	// no-op sink that adds zero allocations to the hot path.
	Metrics *metrics.Registry
	// MaxStalls bounds deadlock-resolution victim aborts per run.
	// Default 256.
	MaxStalls int
	// Inject, when non-nil, is called at named crash points around the
	// engine's force-log sites ("sched:before-forcelog",
	// "sched:after-forcelog") and is propagated to the 2PC coordinator
	// ("twopc:after-decision", "twopc:mid-resolve"). A fault plan
	// (internal/fault) may panic through it with a crash sentinel;
	// RunJobs recovers the sentinel and returns ErrCrashed together with
	// the partial result, leaving log and subsystem state for Recover.
	// No-op when nil.
	Inject func(point string)
	// CheckpointEvery, when positive, takes a fuzzy checkpoint
	// (wal.TakeCheckpoint) after every that many engine force-log
	// appends: the checkpoint record summarizes all pre-horizon history
	// so recovery replays checkpoint + tail instead of the whole log.
	// 0 (the default) disables checkpointing.
	CheckpointEvery int
	// CheckpointLimit caps the checkpoints of one run (0 = unlimited);
	// torture scenarios use it to age a checkpoint under a long tail.
	CheckpointLimit int
	// CompactOnCheckpoint atomically rewrites the log as
	// checkpoint + tail after each checkpoint, when the log supports it
	// (wal.Compactor): temp file → fsync → rename → parent-dir fsync
	// for the file log, an in-memory splice for MemLog.
	CompactOnCheckpoint bool
	// GroupCommit, when enabled (MaxBatch > 0), wraps the log in a
	// batching appender (wal.GroupAppender). The sequential engine
	// appends from one goroutine, so batches rarely exceed one record;
	// the option exists so differential and torture scenarios exercise
	// the same append stream shape as the concurrent runtime,
	// including the "wal:group-fsync" crash point.
	GroupCommit wal.GroupCommit
	// DebugFirstStall prints the engine state at the first stall
	// resolution (diagnostic aid).
	DebugFirstStall bool
	// Resilience, when non-nil, routes regular (strong-order) activity
	// invocations through a resilience layer (internal/chaos): flaky
	// transport, typed retries, circuit breakers. The layer surfaces
	// only outcomes the engine already handles — ErrLocked parks the
	// activity, invocation failures (ErrAborted/ErrTransient/ErrTimeout)
	// take the failed-completion path: retriable activities are
	// re-invoked, everything else steers onto ◁ alternatives or backward
	// recovery. Weak-order invocations and 2PC resolution stay on the
	// direct path (the chaos boundary is invocation delivery).
	Resilience subsystem.ResilientInvoker
}

func (c Config) withDefaults() Config {
	if c.Log == nil {
		c.Log = wal.NewMemLog()
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 8
	}
	if c.MaxStalls == 0 {
		c.MaxStalls = 256
	}
	return c
}

// Metrics aggregates counters of one run. Times are in virtual ticks.
type Metrics struct {
	Makespan       int64
	Invocations    int64 // subsystem invocations attempted (incl. retries)
	Retries        int64 // transient retriable re-invocations
	Compensations  int64
	Rollbacks      int64 // prepared transactions rolled back
	Deferrals      int64 // commit deferrals of non-compensatable activities
	TwoPCCommits   int64 // prepared transactions committed via 2PC
	LockWaits      int64 // dispatch attempts denied by subsystem locks
	PolicyWaits    int64 // dispatch attempts denied by the policy
	Cascades       int64 // cascading aborts triggered
	WeakDeps       int64 // commit-order dependencies recorded (weak order)
	WeakOrderWaits int64 // weak commits delayed by ErrOrder
	WeakRestarts   int64 // re-invocations forced by aborted weak dependencies
	Restarts       int64 // process restarts
	VictimAborts   int64 // stall-resolution aborts
	CommittedProcs int
	AbortedProcs   int
}

// Throughput returns committed processes per 1000 virtual ticks.
func (m Metrics) Throughput() float64 {
	if m.Makespan == 0 {
		return 0
	}
	return float64(m.CommittedProcs) * 1000 / float64(m.Makespan)
}

// Outcome summarizes one process's fate.
type Outcome struct {
	Committed bool
	Aborted   bool
	Restarts  int
	Start     int64
	End       int64
}
