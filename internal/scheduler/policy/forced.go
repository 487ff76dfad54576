package policy

import (
	"transproc/internal/process"
)

// forcedCtx captures, for one dispatch round, the *forced* ordering
// edges of the completed current schedule: conflicts between surviving
// executed activities, and conflicts between a surviving executed
// activity and a potential completion activity of an active process
// (completion activities are appended after everything executed, so such
// a conflict forces the executed activity's process before the active
// one). Prefix-reducibility is maintained inductively by refusing any
// dispatch whose new forced edges would close a cycle — the operational
// form of "the completed process schedule S̃ has always to be considered"
// (Section 3.5).
//
// The context and its maps are reused across rebuilds (a State is
// driven from one goroutine at a time), and all conflict tests run on
// interned service ids and bitset masks.
type forcedCtx struct {
	s *State
	// pots maps each non-terminated process to the bitset of services
	// its future completions might still invoke. For running processes
	// this is the potential recovery set; for aborting processes the
	// services of their queued forward steps.
	pots map[process.ID][]uint64
	// bySvc indexes the surviving effective activities (executed and
	// not compensated/erased, plus in-flight invocations) by interned
	// service id: bySvc[svc] lists the owning processes (deduplicated).
	bySvc [][]process.ID
	// edges is the forced edge set.
	edges map[[2]process.ID]bool
	// phase snapshots the table's phases at build time (for newEdges'
	// aborting-process exemption).
	phase map[process.ID]Phase

	// adj is the adjacency form of edges, built lazily on the first
	// reachability query of the round.
	adj map[process.ID][]process.ID

	// per-query scratch.
	edgeBuf   [][2]process.ID
	stack     []process.ID
	seen      map[process.ID]bool
	maskAlloc []uint64 // bump allocator for pot masks
}

// forced returns the current round's forced-graph context, rebuilt when
// the state version moved since the cached one.
func (s *State) forced() *forcedCtx {
	if s.fctx == nil || s.fctxVersion != s.version {
		s.fctx = s.newForcedCtx()
		s.fctxVersion = s.version
	}
	return s.fctx
}

// newForcedCtx builds the round context from the process table,
// reusing the previous round's allocations.
func (s *State) newForcedCtx() *forcedCtx {
	f := s.fctx
	if f == nil {
		f = &forcedCtx{
			s:     s,
			pots:  make(map[process.ID][]uint64),
			edges: make(map[[2]process.ID]bool),
			phase: make(map[process.ID]Phase),
			seen:  make(map[process.ID]bool),
		}
	} else {
		clear(f.pots)
		clear(f.edges)
		clear(f.phase)
		f.adj = nil
	}
	for i := range f.bySvc {
		f.bySvc[i] = f.bySvc[i][:0]
	}
	f.maskAlloc = f.maskAlloc[:0]

	words := (s.u.Size() + 63) / 64
	for _, p := range s.procs {
		f.phase[p.ID] = p.Phase
		switch p.Phase {
		case Running:
			f.pots[p.ID] = f.newMask(p.Inst.PotentialRecoveryServices(), words)
		case Aborting:
			m := f.blankMask(words)
			for _, st := range p.Recovery {
				if st.Kind == process.StepInvoke {
					m = setBit(m, s.u.intern(st.Service))
				}
			}
			f.pots[p.ID] = m
		}
	}
	for _, ev := range s.events {
		if !ev.effective() {
			continue
		}
		f.addSurvivor(ev.Proc, ev.svc)
	}
	// In-flight invocations participate as survivors: they will commit
	// (or vanish atomically) and their pending conflict edges must be
	// visible to concurrent dispatch decisions.
	for _, p := range s.procs {
		for _, svc := range p.InFlight {
			f.addSurvivor(p.ID, s.u.intern(svc))
		}
		if p.StepBusy() {
			f.addSurvivor(p.ID, s.u.intern(p.StepSvc))
		}
	}
	// Executed-executed edges.
	for k, n := range s.edges {
		if n > 0 {
			f.edges[k] = true
		}
	}
	// Executed-vs-potential-completion edges, computed per distinct
	// (survivor service, process potential) pair.
	for svc, owners := range f.bySvc {
		if len(owners) == 0 {
			continue
		}
		mask := s.u.mask(svc)
		for q, pot := range f.pots {
			if !intersects(pot, mask) {
				continue
			}
			for _, p := range owners {
				if p != q {
					f.edges[[2]process.ID{p, q}] = true
				}
			}
		}
	}
	return f
}

// blankMask hands out a zeroed bitset of the given word count from the
// round's bump allocator.
func (f *forcedCtx) blankMask(words int) []uint64 {
	n := len(f.maskAlloc)
	if cap(f.maskAlloc)-n < words {
		f.maskAlloc = make([]uint64, 0, 64+words)
		n = 0
	}
	f.maskAlloc = f.maskAlloc[:n+words]
	m := f.maskAlloc[n : n+words : n+words]
	for i := range m {
		m[i] = 0
	}
	return m
}

// newMask interns a service-name set into a bitset.
func (f *forcedCtx) newMask(set map[string]bool, words int) []uint64 {
	m := f.blankMask(words)
	for svc := range set {
		m = setBit(m, f.s.u.intern(svc))
	}
	return m
}

// addSurvivor records a surviving effective activity owner under its
// service id, deduplicating owners.
func (f *forcedCtx) addSurvivor(proc process.ID, svc int) {
	for len(f.bySvc) <= svc {
		f.bySvc = append(f.bySvc, nil)
	}
	owners := f.bySvc[svc]
	for _, p := range owners {
		if p == proc {
			return
		}
	}
	f.bySvc[svc] = append(owners, proc)
}

// newEdges computes the forced edges a dispatch of service by proc would
// add. When the dispatch is a queued forward-recovery step, potential
// sets of other *aborting* processes do not force edges (the relative
// order of two queued forward steps is free and realized by actual
// execution order). The returned slice is scratch, valid until the next
// newEdges call on this context.
func (f *forcedCtx) newEdges(proc process.ID, svcID int, isStep bool) [][2]process.ID {
	out := f.edgeBuf[:0]
	mask := f.s.u.mask(svcID)
	for svc, owners := range f.bySvc {
		if len(owners) == 0 {
			continue
		}
		if w := svc / 64; w >= len(mask) || mask[w]&(1<<(uint(svc)%64)) == 0 {
			continue
		}
		for _, p := range owners {
			if p != proc {
				out = append(out, [2]process.ID{p, proc})
			}
		}
	}
	for q, pot := range f.pots {
		if q == proc {
			continue
		}
		if isStep && f.phase[q] == Aborting {
			continue
		}
		if intersects(pot, mask) {
			out = append(out, [2]process.ID{proc, q})
		}
	}
	f.edgeBuf = out
	return out
}

// ForcedEdgesFor exposes newEdges for diagnostics (stall dumps); the
// result is a copy safe to retain.
func (s *State) ForcedEdgesFor(id process.ID, service string, isStep bool) [][2]process.ID {
	fc := s.forced()
	edges := fc.newEdges(id, s.u.intern(service), isStep)
	out := make([][2]process.ID, len(edges))
	copy(out, edges)
	return out
}

// ensureAdj materializes the adjacency form of the forced edges.
func (f *forcedCtx) ensureAdj() {
	if f.adj != nil {
		return
	}
	f.adj = make(map[process.ID][]process.ID, len(f.edges))
	for k := range f.edges {
		if k[0] != k[1] {
			f.adj[k[0]] = append(f.adj[k[0]], k[1])
		}
	}
}

// reaches reports whether `to` is reachable from `from` over the forced
// edges plus the extra edge list.
func (f *forcedCtx) reaches(from, to process.ID, extra [][2]process.ID) bool {
	f.ensureAdj()
	clear(f.seen)
	stack := append(f.stack[:0], from)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			f.stack = stack
			return true
		}
		if f.seen[n] {
			continue
		}
		f.seen[n] = true
		stack = append(stack, f.adj[n]...)
		for _, k := range extra {
			if k[0] == n && k[1] != n {
				stack = append(stack, k[1])
			}
		}
	}
	f.stack = stack
	return false
}

// acyclicWith reports whether none of the given new edges closes a
// cycle through itself in (base ∪ extra). The base contains
// conservative soft edges (conflicts with *potential* completions);
// such over-approximated edges may already form phantom cycles among
// other processes, which must not veto unrelated dispatches — only a
// cycle that the candidate's own edges participate in is a reason to
// deny.
func (f *forcedCtx) acyclicWith(extra [][2]process.ID) bool {
	if len(extra) == 0 {
		return true
	}
	for _, k := range extra {
		if k[0] == k[1] {
			continue
		}
		if f.reaches(k[1], k[0], extra) {
			return false
		}
	}
	return true
}

// acyclicWithActive is acyclicWith, but a cycle only counts when at
// least one process on the closing path satisfies isActive — cycles
// consisting entirely of terminated processes cannot be avoided by
// waiting.
func (f *forcedCtx) acyclicWithActive(extra [][2]process.ID, isActive func(process.ID) bool) bool {
	if len(extra) == 0 {
		return true
	}
	f.ensureAdj()
	neighbors := func(n process.ID, visit func(process.ID)) {
		for _, m := range f.adj[n] {
			visit(m)
		}
		for _, k := range extra {
			if k[0] == n && k[1] != n {
				visit(k[1])
			}
		}
	}
	for _, k := range extra {
		if k[0] == k[1] {
			continue
		}
		// DFS from k[1] to k[0]; remember whether any intermediate (or
		// the endpoints) are active.
		type node struct {
			id        process.ID
			sawActive bool
		}
		start := node{k[1], isActive(k[1]) || isActive(k[0])}
		stack := []node{start}
		best := make(map[process.ID]int) // 0 unseen, 1 seen-inactive, 2 seen-active
		closed := false
		for len(stack) > 0 && !closed {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			level := 1
			if n.sawActive {
				level = 2
			}
			if best[n.id] >= level {
				continue
			}
			best[n.id] = level
			if n.id == k[0] && n.sawActive {
				closed = true
				break
			}
			neighbors(n.id, func(m process.ID) {
				stack = append(stack, node{m, n.sawActive || isActive(m)})
			})
		}
		if closed {
			return false
		}
	}
	return true
}

// pathExists reports whether a forced path from a to b exists.
func (f *forcedCtx) pathExists(a, b process.ID) bool {
	return f.reaches(a, b, nil)
}
