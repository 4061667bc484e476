package netsim

import (
	"math"
	"math/rand"
	"testing"

	"multipath/internal/hypercube"
)

func TestSimulateSingleMessage(t *testing.T) {
	// One message, 3 hops, 5 flits: cut-through pipelines (3 + 5 - 1
	// = 7 steps), store-and-forward serializes (3 · 5 = 15).
	msg := func() []*Message {
		return []*Message{{Route: []int{10, 20, 30}, Flits: 5}}
	}
	ct, err := Simulate(msg(), CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Steps != 7 {
		t.Errorf("cut-through steps %d, want 7", ct.Steps)
	}
	sf, err := Simulate(msg(), StoreAndForward)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Steps != 15 {
		t.Errorf("store-and-forward steps %d, want 15", sf.Steps)
	}
	if ct.FlitsMoved != 15 || sf.FlitsMoved != 15 {
		t.Errorf("flits moved %d/%d, want 15", ct.FlitsMoved, sf.FlitsMoved)
	}
	if ct.DeliveredMsgs != 1 {
		t.Errorf("delivered %d", ct.DeliveredMsgs)
	}
}

func TestSimulateContention(t *testing.T) {
	// Two messages sharing one link: serialized, 2 flits each → 4 steps.
	msgs := []*Message{
		{Route: []int{1}, Flits: 2},
		{Route: []int{1}, Flits: 2},
	}
	r, err := Simulate(msgs, CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	if r.Steps != 4 {
		t.Errorf("steps %d, want 4", r.Steps)
	}
	if r.MaxLinkQueue != 2 {
		t.Errorf("max queue %d", r.MaxLinkQueue)
	}
}

func TestSimulateEmptyRouteAndErrors(t *testing.T) {
	r, err := Simulate([]*Message{{Route: nil, Flits: 3}}, CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	if r.Steps != 0 || r.DeliveredMsgs != 1 {
		t.Errorf("empty route: %+v", r)
	}
	if _, err := Simulate([]*Message{{Route: []int{1}, Flits: 0}}, CutThrough); err == nil {
		t.Error("zero flits accepted")
	}
	// Per-position flit counts are int32.
	tooMany := math.MaxInt32
	tooMany++
	if _, err := Simulate([]*Message{{Route: []int{1}, Flits: tooMany}}, CutThrough); err == nil {
		t.Error("flit count above MaxInt32 accepted")
	}
}

func TestECubeRoute(t *testing.T) {
	q := hypercube.New(4)
	r := ECubeRoute(q, 0b0000, 0b1010)
	if len(r) != 2 {
		t.Fatalf("route %v", r)
	}
	if r[0] != q.EdgeID(0b0000, 1) || r[1] != q.EdgeID(0b0010, 3) {
		t.Errorf("route %v", r)
	}
	if len(ECubeRoute(q, 5, 5)) != 0 {
		t.Error("self route not empty")
	}
}

func TestPermutationMessages(t *testing.T) {
	q := hypercube.New(3)
	rng := rand.New(rand.NewSource(1))
	perm := RandomPermutation(rng, 8)
	msgs := PermutationMessages(q, perm, 4)
	if len(msgs) != 8 {
		t.Fatalf("%d messages", len(msgs))
	}
	r, err := Simulate(msgs, CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveredMsgs != 8 {
		t.Errorf("delivered %d", r.DeliveredMsgs)
	}
}

func BenchmarkSimulatePermutation(b *testing.B) {
	q := hypercube.New(8)
	rng := rand.New(rand.NewSource(3))
	perm := RandomPermutation(rng, q.Nodes())
	for i := 0; i < b.N; i++ {
		msgs := PermutationMessages(q, perm, 16)
		if _, err := Simulate(msgs, CutThrough); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: flit conservation and mode ordering — for random message
// sets, both modes move exactly flits×hops flits and store-and-forward
// never beats cut-through.
func TestModeOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		count := 1 + rng.Intn(12)
		mk := func() []*Message {
			r := rand.New(rand.NewSource(int64(trial)))
			msgs := make([]*Message, count)
			for i := range msgs {
				hops := 1 + r.Intn(5)
				route := make([]int, hops)
				for h := range route {
					route[h] = r.Intn(20)
				}
				route = dedupAdjacent(route)
				msgs[i] = &Message{Route: route, Flits: 1 + r.Intn(6)}
			}
			return msgs
		}
		ct, err := Simulate(mk(), CutThrough)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sf, err := Simulate(mk(), StoreAndForward)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ct.FlitsMoved != sf.FlitsMoved {
			t.Fatalf("trial %d: flit counts differ: %d vs %d", trial, ct.FlitsMoved, sf.FlitsMoved)
		}
		if ct.Steps > sf.Steps {
			t.Fatalf("trial %d: cut-through %d slower than store-and-forward %d", trial, ct.Steps, sf.Steps)
		}
	}
}

// dedupAdjacent removes immediate repeats so routes never cross the
// same link twice in a row (which would stall forever in any mode).
func dedupAdjacent(route []int) []int {
	out := route[:0]
	prev := -1
	for _, l := range route {
		if l != prev {
			out = append(out, l)
			prev = l
		}
	}
	return out
}
