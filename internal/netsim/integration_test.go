// External-package tests: these exercise the simulator against the
// construction packages, which (transitively, through core's
// netsim-backed packet cost) import netsim — so they cannot live in
// the in-package test files.
package netsim_test

import (
	"math/rand"
	"testing"

	"multipath/internal/cycles"
	"multipath/internal/netsim"
	"multipath/internal/xproduct"
)

// §7's "better alternative": two-phase routing on X(Butterfly) keeps
// every route O(n) and pipelines long messages.
func TestTwoPhaseXRouting(t *testing.T) {
	r, err := xproduct.NewTwoPhaseRouter(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	perm := rng.Perm(r.Nodes())
	routes, err := r.PermutationRoutes(perm)
	if err != nil {
		t.Fatal(err)
	}
	// Two-phase routes are longer (≤ 16 links at m = 2) but pipeline:
	// completion ~M + route length, vs distance·M for store-and-forward.
	const M = 128
	var msgs []*netsim.Message
	for _, route := range routes {
		if len(route) == 0 {
			continue
		}
		msgs = append(msgs, &netsim.Message{Route: route, Flits: M})
	}
	res, err := netsim.Simulate(msgs, netsim.CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMsgs != len(msgs) {
		t.Fatalf("delivered %d of %d", res.DeliveredMsgs, len(msgs))
	}
	// §7's point: on the same routes, pipelined (cut-through/wormhole)
	// switching completes in ~congestion·M while store-and-forward pays
	// ~route-length·M — re-buffering the whole message at every hop.
	sfMsgs := make([]*netsim.Message, len(msgs))
	for i, m := range msgs {
		sfMsgs[i] = &netsim.Message{Route: m.Route, Flits: m.Flits}
	}
	sf, err := netsim.Simulate(sfMsgs, netsim.StoreAndForward)
	if err != nil {
		t.Fatal(err)
	}
	if float64(sf.Steps) < 1.8*float64(res.Steps) {
		t.Errorf("two-phase pipelined %d not ~2x faster than buffered %d", res.Steps, sf.Steps)
	}
}

// DESIGN.md's invariant: the static schedule checker and the dynamic
// simulator must agree. Theorem 1's synchronized cost is 3; sending one
// flit down every path delivers in exactly 3 simulated steps.
func TestStaticDynamicAgreement(t *testing.T) {
	for _, n := range []int{6, 8, 10} {
		e, err := cycles.Theorem1(n)
		if err != nil {
			t.Fatal(err)
		}
		static, err := e.SynchronizedCost()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var msgs []*netsim.Message
		for _, ps := range e.Paths {
			for _, p := range ps {
				ids, err := e.Host.PathEdgeIDs(p)
				if err != nil {
					t.Fatal(err)
				}
				msgs = append(msgs, &netsim.Message{Route: ids, Flits: 1})
			}
		}
		dyn, err := netsim.Simulate(msgs, netsim.CutThrough)
		if err != nil {
			t.Fatal(err)
		}
		if dyn.Steps != static {
			t.Errorf("n=%d: dynamic %d vs static %d", n, dyn.Steps, static)
		}
		if dyn.DeliveredMsgs != len(msgs) {
			t.Errorf("n=%d: delivered %d of %d", n, dyn.DeliveredMsgs, len(msgs))
		}
	}
}
