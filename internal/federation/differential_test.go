package federation_test

import (
	"fmt"
	"sync"
	"testing"

	"transproc/internal/chaos"
	"transproc/internal/federation"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/scheduler/policy"
	"transproc/internal/workload"
)

// The cross-node differential battery validates the federation against
// the sequential engine as an oracle. Both sides share the policy layer
// and deterministic per-(origin, service) failure rules, so each
// origin's terminal fate is a pure function of the workload — any
// divergence is a federation bug. Per seed:
//
//  1. the combined schedule reconstructed from all node WALs (stitched
//     by hub stamp) is prefix-reducible, and
//  2. per-origin terminal outcomes equal the sequential oracle's.
//
// Half the seeds add wire chaos (drops, duplicates, ambiguous
// timeouts) with a dispatch budget large enough that no request is
// ever voided: a voided dispatch would surface as an invocation
// failure the oracle never saw, legitimately diverging the fates.
const fedDiffSeeds = 60

func foldOutcomes(out map[process.ID]*scheduler.Outcome) map[string]bool {
	m := make(map[string]bool)
	for id, o := range out {
		origin := string(id)
		for i := 0; i < len(origin); i++ {
			if origin[i] == '+' {
				origin = origin[:i]
				break
			}
		}
		if o.Committed {
			m[origin] = true
		} else if _, seen := m[origin]; !seen {
			m[origin] = false
		}
	}
	return m
}

func runFedDifferential(t *testing.T, seed int64, nodes int, wire bool) (committed, aborted int) {
	t.Helper()
	p := fedProfile(seed)

	// Two identically generated workload copies: the oracle and the
	// cluster must not share mutable subsystem state.
	oracleW := workload.MustGenerate(p)
	fedW := workload.MustGenerate(p)
	rules := chooseRules(oracleW, seed)
	injectRules(t, oracleW.Fed, rules)
	injectRules(t, fedW.Fed, rules)

	eng, err := scheduler.New(oracleW.Fed, scheduler.Config{Mode: scheduler.PRED, MaxRestarts: 64})
	if err != nil {
		t.Fatal(err)
	}
	oracleRes, err := eng.RunJobs(oracleW.Jobs)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	cfg := federation.Config{Nodes: nodes, Mode: policy.PRED, MaxRestarts: 64}
	if wire {
		cfg.Wire = chaos.Plan{Seed: seed, PTransient: 0.03, PTimeout: 0.06, PDuplicate: 0.06}
		cfg.DispatchBudget = 1 << 16
	}
	defs := defsOf(fedW)
	c, err := federation.NewCluster(fedW.Fed, defs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := c.Run()
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			t.Fatalf("node %d: %v", i, nerr)
		}
	}

	// 1. The stitched cross-node schedule is prefix-reducible and no
	// transaction is left in doubt.
	checkStitched(t, c, fedW.Fed, defs)

	// 2. Terminal per-origin outcomes match the sequential oracle.
	want := foldOutcomes(oracleRes.Outcomes)
	got := foldOutcomes(res.Outcomes)
	if len(want) != len(got) {
		t.Fatalf("origin sets differ: oracle %d, federation %d", len(want), len(got))
	}
	for origin, w := range want {
		g, okG := got[origin]
		if !okG {
			t.Fatalf("origin %s missing from federation outcomes", origin)
		}
		if g != w {
			t.Fatalf("origin %s: oracle committed=%v, federation committed=%v\nrules: %v\nhub:\n%s",
				origin, w, g, rules, c.Hub().DumpState())
		}
		if g {
			committed++
		} else {
			aborted++
		}
	}
	return committed, aborted
}

// TestFedDifferentialPRED runs the full battery of seeded workloads
// through the sequential oracle and a multi-node cluster under PRED.
func TestFedDifferentialPRED(t *testing.T) {
	seeds := int64(fedDiffSeeds)
	if testing.Short() {
		seeds = 12
	}
	var committed, aborted int
	var mu sync.Mutex
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			nodes := 2 + int(seed%3) // 2..4 nodes
			wire := seed%2 == 0      // half the seeds add transport chaos
			c, a := runFedDifferential(t, seed, nodes, wire)
			mu.Lock()
			committed += c
			aborted += a
			mu.Unlock()
		})
	}
	t.Cleanup(func() {
		// Both terminal fates must occur across the battery, otherwise
		// the differential compares trivial all-commit runs.
		if committed == 0 || aborted == 0 {
			t.Errorf("degenerate battery: %d committed, %d aborted origins", committed, aborted)
		}
	})
}
