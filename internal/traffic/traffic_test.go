package traffic

import (
	"math/rand"
	"reflect"
	"testing"

	"multipath/internal/ccc"
	"multipath/internal/cycles"
	"multipath/internal/hypercube"
	"multipath/internal/netsim"
	"multipath/internal/routing"
)

func TestCCCGreedyRoute(t *testing.T) {
	n := 4
	c := ccc.NewCCC(n)
	g := c.Graph()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		from := int32(rng.Intn(c.Nodes()))
		to := int32(rng.Intn(c.Nodes()))
		p := CCCGreedyRoute(n, from, to)
		if p[0] != from || p[len(p)-1] != to {
			t.Fatalf("endpoints wrong: %v", p)
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				t.Fatalf("step (%d,%d) not a CCC edge", p[i], p[i+1])
			}
		}
		if len(p) > 3*n+1 {
			t.Fatalf("route too long: %d", len(p))
		}
	}
}

// §7's headline comparison: with M-flit messages on a random
// permutation, store-and-forward e-cube routing costs Θ(n·M) while the
// split transfer over the CCC copies pipelines in O(M + n).
func TestSection7Speedup(t *testing.T) {
	const n = 4 // CCC levels; host Q_6
	mc, err := ccc.Theorem3(n)
	if err != nil {
		t.Fatal(err)
	}
	q := mc.Host
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(q.Nodes())
	const M = 64

	sfMsgs, err := routing.Templates(routing.NewDimOrder(q), q, routing.PermutationPairs(perm), M, 0)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := netsim.Simulate(sfMsgs, netsim.StoreAndForward)
	if err != nil {
		t.Fatal(err)
	}
	ccMsgs, err := MultiCopyCCCMessages(mc, n, perm, M)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := netsim.Simulate(ccMsgs, netsim.CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	// Store-and-forward pays ≥ distance·M for some message; the CCC
	// pipeline should beat it clearly.
	if sf.Steps <= cc.Steps {
		t.Errorf("no speedup: store-and-forward %d vs CCC pipeline %d", sf.Steps, cc.Steps)
	}
	if cc.Steps > 8*(M/n)+20*n {
		t.Errorf("CCC pipeline %d steps not O(M+n)-like", cc.Steps)
	}
	if sf.Steps < 2*M {
		t.Errorf("store-and-forward %d suspiciously fast", sf.Steps)
	}
}

// §2 via the simulator: Theorem 1's width-w embedding moves m packets
// per cycle edge in Θ(m/w) pipelined steps, the Gray code in m.
func TestSection2ThroughSimulator(t *testing.T) {
	const n, m = 8, 64
	gray, err := cycles.GrayCode(n)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := WidthPathMessages(gray, m)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := netsim.Simulate(gm, netsim.CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := cycles.Theorem1(n)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := WidthPathMessages(multi, m)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := netsim.Simulate(mm, netsim.CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Steps != m {
		t.Errorf("gray steps %d, want %d", gr.Steps, m)
	}
	// Steady-state rate: every physical link serves first/middle/last
	// duty for three different paths, so throughput is w/3 packets per
	// step — 3m/w ≈ 38 steps at w = 5, vs m = 64 for the Gray code.
	w := cycles.RowSubcubeDim(n) + 1
	if mr.Steps > 3*m/w+6 {
		t.Errorf("multi-path %d steps exceeds 3m/w bound %d", mr.Steps, 3*m/w+6)
	}
	if mr.Steps >= gr.Steps {
		t.Errorf("multi-path %d not faster than gray %d", mr.Steps, gr.Steps)
	}
}

// Edge cases of the message builders: every builder rejects a
// non-positive flit count up front (a zero-flit build used to succeed
// as an empty message set, silently simulating nothing), self-traffic
// is skipped rather than routed, and seeded builders are reproducible.
func TestBuilderRejectsNonPositiveFlits(t *testing.T) {
	emb, err := cycles.Theorem1(6)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := ccc.Theorem3(4)
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(1)).Perm(mc.Host.Nodes())
	builders := map[string]func(flits int) error{
		"WidthPathMessages": func(flits int) error {
			_, err := WidthPathMessages(emb, flits)
			return err
		},
		"MultiCopyCCCMessages": func(flits int) error {
			_, err := MultiCopyCCCMessages(mc, 4, perm, flits)
			return err
		},
		"PathTemplates": func(flits int) error {
			_, _, err := PathTemplates(emb, nil, flits)
			return err
		},
	}
	for name, build := range builders {
		for _, flits := range []int{0, -1, -16} {
			if err := build(flits); err == nil {
				t.Errorf("%s accepted flits=%d", name, flits)
			}
		}
		if err := build(1); err != nil {
			t.Errorf("%s rejected flits=1: %v", name, err)
		}
	}
}

func TestBuilderSelfTraffic(t *testing.T) {
	const n = 4
	mc, err := ccc.Theorem3(n)
	if err != nil {
		t.Fatal(err)
	}
	identity := make([]int, mc.Host.Nodes())
	for i := range identity {
		identity[i] = i
	}
	msgs, err := MultiCopyCCCMessages(mc, n, identity, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 0 {
		t.Fatalf("identity permutation built %d messages, want 0 (self-traffic skipped)", len(msgs))
	}
	// One real pair among self-pairs: only that pair's pieces appear.
	identity[0], identity[1] = 1, 0
	msgs, err = MultiCopyCCCMessages(mc, n, identity, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(mc.Copies); len(msgs) != want {
		t.Fatalf("single swapped pair built %d messages, want %d", len(msgs), want)
	}
}

func TestBuilderSeededDeterminism(t *testing.T) {
	const n = 4
	mc, err := ccc.Theorem3(n)
	if err != nil {
		t.Fatal(err)
	}
	build := func() []*netsim.Message {
		rng := rand.New(rand.NewSource(77))
		perm := rng.Perm(mc.Host.Nodes())
		msgs, err := MultiCopyCCCMessages(mc, n, perm, 16)
		if err != nil {
			t.Fatal(err)
		}
		return msgs
	}
	if a, b := build(), build(); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed built different message sets")
	}
}

// The width-paths workload class used to anchor the engine-vs-reference
// equivalence suite in netsim; since the builders moved here, the check
// rides along: the dense engine must match the retained seed simulator
// bit-for-bit on it.
func TestWidthPathsEngineMatchesReference(t *testing.T) {
	e8, err := cycles.Theorem1(8)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := WidthPathMessages(e8, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []netsim.Mode{netsim.StoreAndForward, netsim.CutThrough} {
		ref, err := netsim.SimulateReference(wm, mode)
		if err != nil {
			t.Fatalf("%v: reference: %v", mode, err)
		}
		got, err := netsim.Simulate(wm, mode)
		if err != nil {
			t.Fatalf("%v: engine: %v", mode, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%v: engine %+v != reference %+v", mode, got, ref)
		}
	}
}

func TestPathTemplatesLayout(t *testing.T) {
	e, err := cycles.Theorem1(4)
	if err != nil {
		t.Fatal(err)
	}
	tmpls, groups, err := PathTemplates(e, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(e.Paths) {
		t.Fatalf("%d groups for %d guest edges", len(groups), len(e.Paths))
	}
	total := 0
	for b, group := range groups {
		if len(group) != len(e.Paths[b]) {
			t.Fatalf("bundle %d: %d templates for %d paths", b, len(group), len(e.Paths[b]))
		}
		for j, ti := range group {
			m := tmpls[ti]
			if m.Flits != 3 {
				t.Fatalf("bundle %d path %d: %d flits", b, j, m.Flits)
			}
			p := e.Paths[b][j]
			wantHops := len(p) - 1
			if wantHops < 0 {
				wantHops = 0
			}
			if len(m.Route) != wantHops {
				t.Fatalf("bundle %d path %d: route %v for path %v", b, j, m.Route, p)
			}
			ids, err := e.Host.PathEdgeIDs(p)
			if err != nil {
				t.Fatal(err)
			}
			if wantHops > 0 && !reflect.DeepEqual(m.Route, ids) {
				t.Fatalf("bundle %d path %d: route %v, want %v", b, j, m.Route, ids)
			}
			total++
		}
	}
	if total != len(tmpls) {
		t.Fatalf("groups cover %d templates of %d", total, len(tmpls))
	}

	// An explicit edge subset selects exactly those bundles, in order.
	sub, sg, err := PathTemplates(e, []int{2, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sg) != 2 || len(sg[0]) != len(e.Paths[2]) || len(sg[1]) != len(e.Paths[0]) {
		t.Fatalf("subset groups misshapen: %v", sg)
	}
	if got, want := sub[sg[1][0]].Route, tmpls[groups[0][0]].Route; !reflect.DeepEqual(got, want) {
		t.Fatalf("subset bundle 1 path 0 route %v, want edge 0's %v", got, want)
	}
}

func TestPathTemplatesErrors(t *testing.T) {
	e, err := cycles.Theorem1(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := PathTemplates(e, nil, 0); err == nil {
		t.Error("flits 0 accepted")
	}
	if _, _, err := PathTemplates(e, []int{len(e.Paths)}, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, _, err := PathTemplates(e, []int{-1}, 1); err == nil {
		t.Error("negative edge accepted")
	}
}

// §8.1 broadcast: splitting over Lemma 1's n cycles divides the
// bandwidth term by n. The edge-disjoint cycle routes are also an
// engine-vs-reference equivalence workload.
func TestBroadcastOverHamiltonianCycles(t *testing.T) {
	const n, B = 6, 600
	q := hypercube.New(n)
	single, err := BroadcastMessages(q, B, false)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := BroadcastMessages(q, B, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || len(multi) != n {
		t.Fatalf("message counts %d/%d", len(single), len(multi))
	}
	sr, err := netsim.Simulate(single, netsim.CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := netsim.Simulate(multi, netsim.CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	// (2^n - 2) hops: single pays + B - 1; multi pays + B/n - 1 on
	// edge-disjoint cycles (no contention).
	hops := q.Nodes() - 2
	if sr.Steps != hops+B {
		t.Errorf("single broadcast %d steps, want %d", sr.Steps, hops+B)
	}
	if mr.Steps != hops+B/n {
		t.Errorf("multi broadcast %d steps, want %d", mr.Steps, hops+B/n)
	}
	if mr.Steps >= sr.Steps {
		t.Errorf("no broadcast speedup: %d vs %d", mr.Steps, sr.Steps)
	}
	bm, err := BroadcastMessages(q, 96, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []netsim.Mode{netsim.StoreAndForward, netsim.CutThrough} {
		ref, err := netsim.SimulateReference(bm, mode)
		if err != nil {
			t.Fatal(err)
		}
		got, err := netsim.Simulate(bm, mode)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%v: engine %+v != reference %+v", mode, got, ref)
		}
	}
}

func TestBroadcastOddDimension(t *testing.T) {
	q := hypercube.New(5)
	msgs, err := BroadcastMessages(q, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 4 { // 2⌊5/2⌋ directed cycles
		t.Fatalf("%d messages", len(msgs))
	}
	if _, err := netsim.Simulate(msgs, netsim.CutThrough); err != nil {
		t.Fatal(err)
	}
}
