package federation

import (
	"flag"
	"testing"
)

var (
	fedSeed  = flag.Int64("fed.seed", -1, "run only this federation-torture seed (reproduce a failure)")
	fedFirst = flag.Int64("fed.first", 0, "first federation-torture seed of the battery")
	fedCount = flag.Int64("fed.count", 200, "number of federation-torture seeds to run")
)

// TestFedTortureBattery runs the federation-torture battery: for each
// seed a deterministic workload is partitioned across 2-3 scheduler
// nodes and driven under a seeded transport fault plan — a node killed
// mid-2PC, a partition window cutting a node off during cross-node
// resolution, or a node crash in the dispatch window followed by
// composed recovery and a re-join session. The stitched per-node WALs
// are recovered as one global history and checked against every
// recovery guarantee (fault.CheckRecovered). A failure names the
// single seed that reproduces it:
//
//	go test ./internal/federation -run FedTortureBattery -fed.seed=N -v
func TestFedTortureBattery(t *testing.T) {
	if *fedSeed >= 0 {
		sc := FedScenarioFor(*fedSeed)
		t.Logf("seed %d: class=%s nodes=%d crash={node %d, %q, count %d} wire=%+v",
			sc.Seed, sc.Class, sc.Nodes, sc.CrashNode, sc.CrashPoint, sc.CrashCount, sc.Wire)
		alt, err := RunFedScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("alternatives fired: %v", alt)
		return
	}
	first, count := *fedFirst, *fedCount
	if testing.Short() && count > 30 {
		count = 30
	}
	altFires := 0
	byClass := make(map[string]int)
	for seed := first; seed < first+count; seed++ {
		sc := FedScenarioFor(seed)
		byClass[sc.Class]++
		alt, err := RunFedScenario(sc)
		if alt {
			altFires++
		}
		if err != nil {
			t.Errorf("federation torture scenario failed (reproduce: go test ./internal/federation -run FedTortureBattery -fed.seed=%d -v): %v",
				seed, err)
		}
	}
	for _, class := range []string{"fed-kill-mid-2pc", "fed-partition-resolve", "fed-crash-rejoin"} {
		if byClass[class] == 0 {
			t.Errorf("battery never exercised class %s", class)
		}
	}
	// The partition/kill classes must leave room for forward recovery:
	// across the battery, some origin with a permanently failing service
	// has to commit through a ◁ alternative on a surviving node.
	if altFires == 0 {
		t.Error("no scenario committed a failed origin through an alternative path")
	}
	t.Logf("federation torture battery: %d scenarios, %d with alternatives fired, classes: %v",
		count, altFires, byClass)
}
