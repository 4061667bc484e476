package netsim

import (
	"errors"
	"math/rand"
	"testing"

	"multipath/internal/hypercube"
)

func TestWormholeSingleMessagePipelines(t *testing.T) {
	// 3 hops, 5 flits: like cut-through, 3 + 5 - 1 = 7 steps.
	r, err := SimulateWormhole([]*Message{{Route: []int{10, 20, 30}, Flits: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Steps != 7 {
		t.Errorf("steps %d, want 7", r.Steps)
	}
	if r.FlitsMoved != 15 || r.DeliveredMsgs != 1 {
		t.Errorf("flits %d delivered %d", r.FlitsMoved, r.DeliveredMsgs)
	}
	// A long message spans all 3 links at once.
	if r.MaxLinksHeld != 3 {
		t.Errorf("max links held %d", r.MaxLinksHeld)
	}
}

func TestWormholeBlockingHoldsChannel(t *testing.T) {
	// Chain: C occupies link 2 for 8 steps; A (route 1→2) stalls
	// behind C while HOLDING link 1 with only 2 flits across (the
	// flit-buffer bound); B, wanting link 1, is blocked the whole
	// time even though link 1 is idle. Cut-through instead buffers A
	// at the intermediate node and lets B interleave.
	mk := func() []*Message {
		return []*Message{
			{Route: []int{2}, Flits: 8},    // C
			{Route: []int{1, 2}, Flits: 8}, // A
			{Route: []int{1}, Flits: 2},    // B
		}
	}
	wh, err := SimulateWormhole(mk())
	if err != nil {
		t.Fatal(err)
	}
	// C: link 2 steps 1-8. A: 2 flits on link 1 (steps 1-2), stalls;
	// link 2 granted at step 9, drains by step 16, link 1 releases
	// after step 15; B crosses at steps 16-17.
	if wh.Steps != 17 {
		t.Errorf("wormhole steps %d, want 17", wh.Steps)
	}
	ct, err := Simulate(mk(), CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Steps >= wh.Steps {
		t.Errorf("cut-through %d should beat wormhole %d here", ct.Steps, wh.Steps)
	}
}

func TestWormholeDeadlockDetected(t *testing.T) {
	// Classic two-message cycle: A holds 1 and wants 2; B holds 2 and
	// wants 1. Long flit counts keep both tails from releasing.
	msgs := []*Message{
		{Route: []int{1, 2}, Flits: 100},
		{Route: []int{2, 1}, Flits: 100},
	}
	_, err := SimulateWormhole(msgs)
	var dl *ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	if dl.Blocked != 2 {
		t.Errorf("blocked %d", dl.Blocked)
	}
}

func TestWormholeNoDeadlockShortMessages(t *testing.T) {
	// The same cyclic routes with 1-flit messages release links before
	// the cycle closes (each link is held for a single step).
	msgs := []*Message{
		{Route: []int{1, 2}, Flits: 1},
		{Route: []int{2, 1}, Flits: 1},
	}
	r, err := SimulateWormhole(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveredMsgs != 2 {
		t.Errorf("delivered %d", r.DeliveredMsgs)
	}
}

// Dimension-ordered routes are deadlock-free: run many random
// permutations under wormhole switching and require completion.
func TestWormholeECubeDeadlockFree(t *testing.T) {
	q := hypercube.New(6)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(q.Nodes())
		msgs := permMessages(q, perm, 8)
		r, err := SimulateWormhole(msgs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := 0
		for _, m := range msgs {
			if len(m.Route) > 0 {
				want++
			}
		}
		if r.DeliveredMsgs != len(msgs) {
			t.Fatalf("trial %d: delivered %d of %d (%d routed)", trial, r.DeliveredMsgs, len(msgs), want)
		}
	}
}

func TestWormholeMatchesFlitConservation(t *testing.T) {
	q := hypercube.New(5)
	rng := rand.New(rand.NewSource(5))
	perm := rng.Perm(q.Nodes())
	msgs := permMessages(q, perm, 4)
	r, err := SimulateWormhole(msgs)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, m := range msgs {
		want += 4 * len(m.Route)
	}
	if r.FlitsMoved != want {
		t.Errorf("flits moved %d, want %d", r.FlitsMoved, want)
	}
}

func TestWormholeRejectsZeroFlits(t *testing.T) {
	if _, err := SimulateWormhole([]*Message{{Route: []int{1}, Flits: 0}}); err == nil {
		t.Error("zero flits accepted")
	}
}

func TestWormholeEmptyRoutes(t *testing.T) {
	r, err := SimulateWormhole([]*Message{{Route: nil, Flits: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Steps != 0 || r.DeliveredMsgs != 1 {
		t.Errorf("%+v", r)
	}
}

func BenchmarkWormholePermutation(b *testing.B) {
	q := hypercube.New(8)
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(q.Nodes())
	for i := 0; i < b.N; i++ {
		msgs := permMessages(q, perm, 16)
		if _, err := SimulateWormhole(msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateWormhole measures the steady-state cost of the
// pooled wormhole simulator alone: the message set is built once, so
// allocs/op shows what a warm call costs (the result struct and pool
// traffic, not a per-call link-numbering map).
func BenchmarkSimulateWormhole(b *testing.B) {
	q := hypercube.New(8)
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(q.Nodes())
	msgs := permMessages(q, perm, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateWormhole(msgs); err != nil {
			b.Fatal(err)
		}
	}
}
