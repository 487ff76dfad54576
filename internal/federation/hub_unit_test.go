package federation

import (
	"fmt"
	"testing"
	"time"

	"transproc/internal/process"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
	"transproc/internal/workload"
)

// unitWorld builds a small failure-free world for direct Hub.Handle
// tests.
func unitWorld(t *testing.T) (*subsystem.Federation, []*process.Process) {
	t.Helper()
	p := workload.DefaultProfile(11)
	p.Processes = 6
	p.PermFailureProb = 0
	p.TransientFailureProb = 0
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	defs := make([]*process.Process, len(w.Jobs))
	for i, j := range w.Jobs {
		defs[i] = j.Proc
	}
	return w.Fed, defs
}

func unitHub(t *testing.T, cfg HubConfig) (*Hub, []*process.Process) {
	t.Helper()
	fed, defs := unitWorld(t)
	h, err := NewHub(fed, defs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, defs
}

// hubCaller issues frames against a hub with fresh request ids, the way
// one connected node would.
type hubCaller struct {
	h    *Hub
	node uint32
	req  uint64
}

func (c *hubCaller) call(f *Frame) *Frame {
	f.Node = c.node
	f.Epoch = c.h.Epoch()
	c.req++
	f.Req = c.req<<8 | uint64(c.node)
	return c.h.Handle(f)
}

func (c *hubCaller) hello() *Frame {
	return c.h.Handle(&Frame{Type: MsgHello, Node: c.node, Origin: fmt.Sprintf("n%d", c.node)})
}

// TestHubStaleFrameBounces pins the incarnation and membership gates:
// a frame carrying a previous hub epoch bounces StStale, as does any
// non-hello frame from a dead node; MsgHello alone bypasses both and
// revives a dead node.
func TestHubStaleFrameBounces(t *testing.T) {
	h, _ := unitHub(t, HubConfig{Epoch: 7})
	c := &hubCaller{h: h, node: 1}
	if got := c.hello(); got.Status != StOK {
		t.Fatalf("hello: %+v", got)
	}

	// Previous-epoch frame: stale, and NOT cached (the retry after
	// re-hello must not be wedged behind a poisoned dedup entry).
	stale := &Frame{Type: MsgHeartbeat, Node: 1, Epoch: 6, Req: 9999}
	if got := h.Handle(stale); got.Status != StStale {
		t.Fatalf("old-epoch frame: got %v, want StStale", got.Status)
	}
	if got := h.Handle(&Frame{Type: MsgHeartbeat, Node: 1, Epoch: 7, Req: 9999}); got.Status != StOK {
		t.Fatalf("same id at the current epoch after a stale bounce: got %v, want StOK", got.Status)
	}

	// Unknown node (never helloed): hard error, not a silent grant.
	if got := h.Handle(&Frame{Type: MsgHeartbeat, Node: 2, Epoch: 7, Req: 1}); got.Status != StError {
		t.Fatalf("frame from unknown node: got %v, want StError", got.Status)
	}

	// Dead node: every non-hello frame bounces stale until a re-hello
	// revives the membership.
	h.NodeDown(1)
	if got := c.call(&Frame{Type: MsgHeartbeat}); got.Status != StStale {
		t.Fatalf("frame from dead node: got %v, want StStale", got.Status)
	}
	if got := c.hello(); got.Status != StOK {
		t.Fatalf("reviving hello: %+v", got)
	}
	if got := c.call(&Frame{Type: MsgHeartbeat}); got.Status != StOK {
		t.Fatalf("frame after revival: got %v, want StOK", got.Status)
	}
}

// TestHubAdmitReplayCarriesFate pins the idempotent-admit contract: a
// replayed admit of a known incarnation (a lost response re-asked
// outside the dedup window) answers Flag2 without a second start stamp,
// and once the incarnation is terminal the replay carries its fate so
// the returning node files it instead of driving a dead incarnation.
func TestHubAdmitReplayCarriesFate(t *testing.T) {
	h, defs := unitHub(t, HubConfig{})
	c := &hubCaller{h: h, node: 1}
	c.hello()

	committed, aborted := string(defs[0].ID), string(defs[1].ID)
	for _, origin := range []string{committed, aborted} {
		first := c.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin})
		if first.Status != StOK || first.Flag2 || first.Stamp == 0 {
			t.Fatalf("first admit of %s: %+v", origin, first)
		}
		replay := c.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin})
		if replay.Status != StOK || !replay.Flag2 {
			t.Fatalf("live replay of %s: %+v", origin, replay)
		}
		if replay.Extra != ReattachUnknown {
			t.Fatalf("live replay of %s carries fate %d, want none", origin, replay.Extra)
		}
	}

	if got := c.call(&Frame{Type: MsgTerminate, Proc: committed, Flag: true}); got.Status != StOK {
		t.Fatalf("terminate: %+v", got)
	}
	if got := c.call(&Frame{Type: MsgTerminate, Proc: aborted, Flag: false}); got.Status != StOK {
		t.Fatalf("terminate: %+v", got)
	}

	if got := c.call(&Frame{Type: MsgAdmit, Proc: committed, Origin: committed}); !got.Flag2 || got.Extra != ReattachCommitted {
		t.Errorf("replayed admit of a committed incarnation: %+v, want Flag2 + ReattachCommitted", got)
	}
	if got := c.call(&Frame{Type: MsgAdmit, Proc: aborted, Origin: aborted}); !got.Flag2 || got.Extra != ReattachAborted {
		t.Errorf("replayed admit of an aborted incarnation: %+v, want Flag2 + ReattachAborted", got)
	}
}

// TestHubReattachFates walks a node's post-reconnect fate query through
// every answer: unknown, live, committed, aborted (with and without a
// restart grant), and parked-as-zombie.
func TestHubReattachFates(t *testing.T) {
	h, defs := unitHub(t, HubConfig{})
	c1 := &hubCaller{h: h, node: 1}
	c2 := &hubCaller{h: h, node: 2}
	c1.hello()
	c2.hello()

	if got := c1.call(&Frame{Type: MsgReattach, Proc: "never-admitted"}); got.Extra != ReattachUnknown {
		t.Fatalf("unknown incarnation: fate %d, want ReattachUnknown", got.Extra)
	}

	origin := string(defs[0].ID)
	c1.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin})
	if got := c1.call(&Frame{Type: MsgReattach, Proc: origin}); got.Extra != ReattachLive {
		t.Fatalf("running incarnation: fate %d, want ReattachLive", got.Extra)
	}

	c1.call(&Frame{Type: MsgTerminate, Proc: origin, Flag: true})
	if got := c1.call(&Frame{Type: MsgReattach, Proc: origin}); got.Extra != ReattachCommitted {
		t.Fatalf("committed incarnation: fate %d, want ReattachCommitted", got.Extra)
	}

	// A zombie (owner died with committed history) must answer Parked:
	// the node stops driving it and recovery finishes it.
	zorigin := string(defs[1].ID)
	c1.call(&Frame{Type: MsgAdmit, Proc: zorigin, Origin: zorigin})
	h.byID[process.ID(zorigin)].committedEvents = 1 // not a safe orphan
	h.NodeDown(1)
	if got := c2.call(&Frame{Type: MsgReattach, Proc: zorigin}); got.Extra != ReattachParked {
		t.Fatalf("zombie incarnation: fate %d, want ReattachParked", got.Extra)
	}
}

// TestHubRestartGrantSingleLineage pins the at-most-one-live-incarnation
// rule: an aborted origin gets exactly one outstanding restart grant —
// further requests are refused until the granted incarnation is
// admitted (or otherwise retired), because a forked lineage would
// double-execute the process.
func TestHubRestartGrantSingleLineage(t *testing.T) {
	h, defs := unitHub(t, HubConfig{})
	c1 := &hubCaller{h: h, node: 1}
	c2 := &hubCaller{h: h, node: 2}
	c1.hello()
	c2.hello()

	origin := string(defs[0].ID)
	c1.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin})
	c1.call(&Frame{Type: MsgTerminate, Proc: origin, Flag: false})

	// Fate query without a restart request: no grant.
	if got := c1.call(&Frame{Type: MsgReattach, Proc: origin}); got.Extra != ReattachAborted || got.Flag {
		t.Fatalf("fate-only reattach: %+v, want ReattachAborted without a grant", got)
	}

	grant := c1.call(&Frame{Type: MsgReattach, Proc: origin, Flag: true})
	wantID := origin + "+r1"
	if !grant.Flag || grant.Victim != wantID || grant.Stamp2 != 1 {
		t.Fatalf("first restart request: %+v, want grant of %s", grant, wantID)
	}

	// The grant is un-admitted: a second requester (say the origin's
	// old owner bouncing back through another reconnect) must NOT fork
	// the lineage.
	if got := c2.call(&Frame{Type: MsgReattach, Proc: origin, Flag: true}); got.Flag {
		t.Fatalf("second restart request while one grant is pending: %+v, want no grant", got)
	}

	// Admitting the granted incarnation clears the pending marker; once
	// it aborts too, the next request is granted the next suffix.
	if got := c2.call(&Frame{Type: MsgAdmit, Proc: wantID, Origin: origin, Extra: 1}); got.Status != StOK {
		t.Fatalf("admit of granted incarnation: %+v", got)
	}
	if got := c1.call(&Frame{Type: MsgReattach, Proc: origin, Flag: true}); got.Flag {
		t.Fatalf("restart request while %s is live: %+v, want no grant", wantID, got)
	}
	c2.call(&Frame{Type: MsgTerminate, Proc: wantID, Flag: false})
	if got := c1.call(&Frame{Type: MsgReattach, Proc: origin, Flag: true}); !got.Flag || got.Victim != origin+"+r2" {
		t.Fatalf("restart request after %s aborted: %+v, want grant of %s+r2", wantID, got, origin)
	}
}

// TestHubParkedBounces pins the StPark contract: a parked process's
// racing dispatch and terminate RPCs bounce with StPark naming the
// process, and a dispatch for a retired incarnation is a hard error.
func TestHubParkedBounces(t *testing.T) {
	h, defs := unitHub(t, HubConfig{})
	c := &hubCaller{h: h, node: 1}
	c.hello()

	origin := string(defs[0].ID)
	c.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin})
	hp := h.byID[process.ID(origin)]
	hp.Phase, hp.parked = policy.Done, true

	if got := c.call(&Frame{Type: MsgDispatch, Proc: origin, Local: 1}); got.Status != StPark || got.Victim != origin {
		t.Errorf("dispatch against a parked process: %+v, want StPark naming it", got)
	}
	if got := c.call(&Frame{Type: MsgTerminate, Proc: origin, Flag: false}); got.Status != StPark || got.Victim != origin {
		t.Errorf("terminate against a parked process: %+v, want StPark naming it", got)
	}

	done := string(defs[1].ID)
	c.call(&Frame{Type: MsgAdmit, Proc: done, Origin: done})
	c.call(&Frame{Type: MsgTerminate, Proc: done, Flag: true})
	if got := c.call(&Frame{Type: MsgDispatch, Proc: done, Local: 1}); got.Status != StError {
		t.Errorf("dispatch against a retired incarnation: %+v, want StError", got)
	}
	if got := c.call(&Frame{Type: MsgDispatch, Proc: "ghost", Local: 1}); got.Status != StError {
		t.Errorf("dispatch for an unknown process: %+v, want StError", got)
	}
}

// TestHubCancelFetchOrVoid pins the ambiguous-timeout protocol: a
// cancel for an executed request replays its cached response (Flag2
// set); a cancel for a never-executed request voids the id so a
// straggling delivery can never execute later.
func TestHubCancelFetchOrVoid(t *testing.T) {
	h, _ := unitHub(t, HubConfig{})
	c := &hubCaller{h: h, node: 1}
	c.hello()

	// Executed request → fetch path.
	exec := &Frame{Type: MsgHeartbeat}
	if got := c.call(exec); got.Status != StOK {
		t.Fatalf("heartbeat: %+v", got)
	}
	fetch := c.call(&Frame{Type: MsgCancel, Gen: int64(exec.Req)})
	if fetch.Status != StOK || !fetch.Flag2 {
		t.Fatalf("cancel of an executed request: %+v, want cached replay (Flag2)", fetch)
	}

	// Never-executed request → void path.
	const ghost = uint64(0xDEAD)
	void := c.call(&Frame{Type: MsgCancel, Gen: int64(ghost)})
	if void.Status != StOK || void.Flag2 {
		t.Fatalf("cancel of an unseen request: %+v, want voided (no Flag2)", void)
	}
	straggler := h.Handle(&Frame{Type: MsgHeartbeat, Node: 1, Epoch: h.Epoch(), Req: ghost})
	if straggler.Status != StError || straggler.Err != "voided" {
		t.Fatalf("straggling delivery of a voided request: %+v, want the void marker", straggler)
	}
}

// TestHubLeaseExpiry drives the silence-based death detector with a
// pinned clock: a node that stops heartbeating past the TTL is expired,
// its safe orphan is retired and re-offered to the survivor, and a
// revived owner learns the retirement through its admit replay — the
// exact path that once forked a lineage.
func TestHubLeaseExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	h, defs := unitHub(t, HubConfig{
		LeaseTTL: 100 * time.Millisecond,
		Now:      func() time.Time { return now },
	})
	c1 := &hubCaller{h: h, node: 1}
	c2 := &hubCaller{h: h, node: 2}
	c1.hello()
	c2.hello()

	origin := string(defs[0].ID)
	if got := c2.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin}); got.Status != StOK {
		t.Fatalf("admit: %+v", got)
	}

	// Node 1 keeps heartbeating; node 2 goes silent.
	now = now.Add(60 * time.Millisecond)
	c1.call(&Frame{Type: MsgHeartbeat})
	now = now.Add(60 * time.Millisecond)
	h.ExpireLeases()

	if got := c1.call(&Frame{Type: MsgHeartbeat}); got.Status != StOK {
		t.Errorf("heartbeating node expired: %+v", got)
	}
	if got := c2.call(&Frame{Type: MsgHeartbeat}); got.Status != StStale {
		t.Errorf("silent node not expired: %+v, want StStale", got)
	}

	// The zero-committed-events orphan was retired for re-homing: an
	// adoption offer is queued on the survivor and its origin is marked
	// pending, so no reattach can fork the lineage meanwhile.
	if n := len(h.nodes[1].adopts); n != 1 {
		t.Fatalf("survivor holds %d adoption offers, want 1", n)
	}
	if offer := h.nodes[1].adopts[0]; string(offer.origin) != origin || offer.suffix != 1 {
		t.Fatalf("adoption offer %+v, want origin %s at suffix 1", offer, origin)
	}
	if !h.pending[origin] {
		t.Error("re-homed origin not marked pending")
	}
	if got := c1.call(&Frame{Type: MsgReattach, Proc: origin, Flag: true}); got.Flag {
		t.Errorf("restart granted while the adoption offer is outstanding: %+v", got)
	}

	// The silent owner comes back: hello revives it, and the admit
	// replay of its retired incarnation carries the abort fate instead
	// of letting it drive a dead incarnation.
	if got := c2.hello(); got.Status != StOK {
		t.Fatalf("reviving hello: %+v", got)
	}
	replay := c2.call(&Frame{Type: MsgAdmit, Proc: origin, Origin: origin})
	if !replay.Flag2 || replay.Extra != ReattachAborted {
		t.Fatalf("revived owner's admit replay: %+v, want Flag2 + ReattachAborted", replay)
	}
}
