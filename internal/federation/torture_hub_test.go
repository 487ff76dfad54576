package federation

import (
	"flag"
	"testing"
)

var (
	hubSeed  = flag.Int64("hub.seed", -1, "run only this hub-torture seed (reproduce a failure)")
	hubFirst = flag.Int64("hub.first", 0, "first hub-torture seed of the battery")
	hubCount = flag.Int64("hub.count", 60, "number of hub-torture seeds to run")
)

// TestHubTortureBattery runs the hub-kill torture battery: for each
// seed a deterministic workload is partitioned across 2-3 scheduler
// nodes and the coordination hub is killed -9 at a seeded point
// (mid-dispatch, inside the 2PC window, or alongside a dying node), or
// a node crashes under lease-based membership and only lease expiry
// may detect it. Every hub reopen is judged by fault.CheckRecovered at
// its boundary, and the final composed recovery over the full
// multi-incarnation stitched history is judged again. A failure names
// the single seed that reproduces it:
//
//	go test ./internal/federation -run HubTortureBattery -hub.seed=N -v
func TestHubTortureBattery(t *testing.T) {
	if *hubSeed >= 0 {
		sc := HubScenarioFor(*hubSeed)
		t.Logf("seed %d: class=%s nodes=%d hub={%q, count %d} crash={node %d, %q, count %d} lease=%v wire=%+v",
			sc.Seed, sc.Class, sc.Nodes, sc.HubPoint, sc.HubCount,
			sc.CrashNode, sc.CrashPoint, sc.CrashCount, sc.LeaseTTL, sc.Wire)
		st, err := RunHubScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("stats: %+v", st)
		return
	}
	first, count := *hubFirst, *hubCount
	if testing.Short() && count > 16 {
		count = 16
	}
	var total HubStats
	byClass := make(map[string]int)
	for seed := first; seed < first+count; seed++ {
		sc := HubScenarioFor(seed)
		byClass[sc.Class]++
		st, err := RunHubScenario(sc)
		total.Kills += st.Kills
		total.Reopens += st.Reopens
		total.Adoptions += st.Adoptions
		total.LeaseExpiries += st.LeaseExpiries
		total.Reattached += st.Reattached
		if err != nil {
			t.Errorf("hub torture scenario failed (reproduce: go test ./internal/federation -run HubTortureBattery -hub.seed=%d -v): %v",
				seed, err)
		}
	}
	for _, class := range []string{"hub-kill-mid-dispatch", "hub-kill-2pc-window", "hub-kill-double-fault", "fed-lease-expiry"} {
		if byClass[class] == 0 {
			t.Errorf("battery never exercised class %s", class)
		}
	}
	// The battery as a whole must actually exercise the rare paths: hubs
	// die and get reopened, dead nodes' leases expire, and survivors
	// re-attach across restarts.
	if total.Kills == 0 || total.Reopens == 0 {
		t.Errorf("no hub kill was ridden out (kills %d, reopens %d)", total.Kills, total.Reopens)
	}
	if total.LeaseExpiries == 0 {
		t.Error("no lease ever expired across the battery")
	}
	if total.Reattached == 0 {
		t.Error("no node ever re-attached across a hub restart")
	}
	t.Logf("hub torture battery: %d scenarios, stats %+v, classes: %v", count, total, byClass)
}
