package main

import (
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"transproc/internal/metrics"
	"transproc/internal/wal"
)

// hidingWAL forwards only wal.Log: the wrapper the seam must not be.
type hidingWAL struct{ wal.Log }

// groupCounts drives a fixed append sequence through a group-commit
// appender over wrap(file log): one record, then — while that first
// batch is held between its write and its sync — batchers more
// records that queue behind it and flush as one batch. It returns the
// registry's group-batch and fsync counts.
func groupCounts(t *testing.T, wrap func(wal.Log) wal.Log, batchers int) (batches, fsyncs int64) {
	t.Helper()
	file, err := wal.OpenFile(filepath.Join(t.TempDir(), "wal.log"), true)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	file.SetMetrics(reg)
	gate := make(chan struct{})
	var once sync.Once
	g := wal.NewGroupAppender(wrap(file), wal.GroupCommit{MaxBatch: 64}, func(point string) {
		if point == wal.PointGroupFsync {
			once.Do(func() { <-gate })
		}
	})
	g.SetMetrics(reg)

	var wg sync.WaitGroup
	appendRec := func(i int) {
		defer wg.Done()
		if _, err := g.Append(wal.Record{Type: wal.RecStart, Proc: "P" + string(rune('a'+i))}); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go appendRec(0)
	waitQueued(t, 0, true) // the leader is held at the gate
	for i := 1; i <= batchers; i++ {
		wg.Add(1)
		go appendRec(i)
	}
	waitQueued(t, batchers, false)
	close(gate)
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	return reg.Counter(metrics.WALGroupBatches), reg.Counter(metrics.WALFsyncs)
}

// waitQueued waits until n appenders are parked in GroupAppender.Append
// behind the leader (or, with leader set, until the leader is held in
// its flush), reading the goroutine stacks rather than sleeping.
func waitQueued(t *testing.T, n int, leader bool) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		stacks := string(buf[:runtime.Stack(buf, true)])
		queued, leading := 0, 0
		for _, st := range strings.Split(stacks, "\n\n") {
			if !strings.Contains(st, "(*GroupAppender).Append") {
				continue
			}
			switch {
			case strings.Contains(st, "(*GroupAppender).flush"):
				leading++
			case strings.Contains(st, "[chan receive"):
				queued++
			}
		}
		if (leader && leading == 1) || (!leader && queued == n) {
			return
		}
	}
	t.Fatalf("appenders never reached the expected state (want %d queued, leader %v)", n, leader)
}

func TestWALSeamKeepsGroupCommitPath(t *testing.T) {
	const batchers = 5
	rawBatches, rawFsyncs := groupCounts(t, func(l wal.Log) wal.Log { return l }, batchers)
	seam := func(l wal.Log) wal.Log {
		return wrapWAL(l, spanWALAppend, spanWALSync, newTracer(true), newProcClock())
	}
	seamBatches, seamFsyncs := groupCounts(t, seam, batchers)
	if seamBatches != rawBatches || seamFsyncs != rawFsyncs {
		t.Fatalf("seam changed the group-commit counts: batches %d, fsyncs %d; unwrapped: batches %d, fsyncs %d",
			seamBatches, seamFsyncs, rawBatches, rawFsyncs)
	}
	if rawBatches != 2 {
		t.Fatalf("want the sequence to flush as 2 batches, got %d", rawBatches)
	}
	// The control: a wrapper that hides wal.BatchBackend makes the
	// appender fsync once per record, which this test must notice.
	_, hidFsyncs := groupCounts(t, func(l wal.Log) wal.Log { return hidingWAL{l} }, batchers)
	if hidFsyncs == rawFsyncs {
		t.Fatalf("a wrapper hiding wal.BatchBackend kept %d fsyncs; the sequence does not tell the paths apart", hidFsyncs)
	}
}

func TestWALSeamForwardsOptionalInterfaces(t *testing.T) {
	tr := newTracer(false)
	for name, inner := range map[string]wal.Log{"mem": wal.NewMemLog(), "hiding": hidingWAL{wal.NewMemLog()}} {
		w := wrapWAL(inner, spanWALAppend, spanWALSync, tr, nil)
		_, innerBatch := inner.(wal.BatchBackend)
		if _, ok := w.(wal.BatchBackend); ok != innerBatch {
			t.Errorf("%s: seam BatchBackend = %v, inner = %v", name, ok, innerBatch)
		}
		if _, ok := w.(wal.Compactor); !ok {
			t.Errorf("%s: seam must forward wal.Compactor", name)
		}
		if _, ok := w.(wal.Instrumented); !ok {
			t.Errorf("%s: seam must forward wal.Instrumented", name)
		}
	}
}

func TestQuiescentSegments(t *testing.T) {
	recs := []wal.Record{
		{Type: wal.RecStart, Proc: "a"}, {Type: wal.RecStart, Proc: "b"},
		{Type: wal.RecTerminate, Proc: "a"}, {Type: wal.RecTerminate, Proc: "b"},
		{Type: wal.RecStart, Proc: "c"}, {Type: wal.RecTerminate, Proc: "c"},
		{Type: wal.RecStart, Proc: "c+r1"}, {Type: wal.RecStart, Proc: "d"},
		{Type: wal.RecTerminate, Proc: "c+r1"}, {Type: wal.RecTerminate, Proc: "d"},
	}
	segs := quiescentSegments(recs)
	var got []string
	for _, s := range segs {
		got = append(got, strings.Join(s.origins, ","))
	}
	// c and its restart c+r1 are one origin, so they stay in one segment.
	if want := "a,b|c,d"; strings.Join(got, "|") != want {
		t.Fatalf("segments %q, want %q", strings.Join(got, "|"), want)
	}
}
