package routing

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"multipath/internal/bitutil"
	"multipath/internal/hypercube"
	"multipath/internal/netsim"
)

// checkWalk asserts that ids is a valid src→dst walk over dense
// directed edge ids: each id leaves the current node, and the walk
// ends at dst. Returns the hop count.
func checkWalk(t *testing.T, q *hypercube.Q, src, dst hypercube.Node, ids []int32) int {
	t.Helper()
	cur := src
	for i, id := range ids {
		if id < 0 || int(id) >= q.DirectedEdges() {
			t.Fatalf("hop %d: edge id %d outside [0,%d)", i, id, q.DirectedEdges())
		}
		e := q.EdgeOf(int(id))
		if e.From != cur {
			t.Fatalf("hop %d: edge %d leaves node %d, walk is at %d", i, id, e.From, cur)
		}
		cur = e.To()
	}
	if cur != dst {
		t.Fatalf("walk ends at %d, want %d (route %v)", cur, dst, ids)
	}
	return len(ids)
}

func strategies(q *hypercube.Q) []Strategy {
	return []Strategy{NewDimOrder(q), NewValiant(q), NewMinimalOblivious(q), NewAdaptive(q)}
}

// Every strategy's route is a valid src→dst walk; the minimal
// strategies use exactly Hamming-distance hops and Valiant at most 2n.
func TestRoutesAreValidWalks(t *testing.T) {
	q := hypercube.New(5)
	rng := rand.New(rand.NewSource(7))
	for _, s := range strategies(q) {
		for trial := 0; trial < 200; trial++ {
			src := hypercube.Node(rng.Intn(q.Nodes()))
			dst := hypercube.Node(rng.Intn(q.Nodes()))
			hops := checkWalk(t, q, src, dst, s.Route(src, dst, rng))
			dist := bits.OnesCount32(src ^ dst)
			switch s.Name() {
			case "valiant":
				if hops > 2*q.Dims() {
					t.Errorf("%s %d→%d: %d hops > 2n", s.Name(), src, dst, hops)
				}
			default:
				if hops != dist {
					t.Errorf("%s %d→%d: %d hops, want Hamming distance %d", s.Name(), src, dst, hops, dist)
				}
			}
		}
	}
}

// ecubeOracle is an independent e-cube reference for DimOrder and
// Valiant: it fixes the differing bits from lowest to highest and names
// each hop's link by its endpoints through q.EdgeBetween, not by the
// EdgeID arithmetic the strategies use.
func ecubeOracle(t *testing.T, q *hypercube.Q, src, dst hypercube.Node) []int32 {
	t.Helper()
	var out []int32
	for d := 0; d < q.Dims(); d++ {
		if (src^dst)>>uint(d)&1 == 0 {
			continue
		}
		next := src ^ 1<<uint(d)
		id, err := q.EdgeBetween(src, next)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, int32(id))
		src = next
	}
	return out
}

func sameRoute(a []int32, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if int(a[i]) != b[i] {
			return false
		}
	}
	return true
}

// DimOrder is e-cube routing: it equals the oracle on every ordered
// pair of Q_4 and Q_5, and on the hand-computed 0000→1010 route
// (dimension 1 out of 0000, then dimension 3 out of 0010).
func TestDimOrderMatchesECubeOracle(t *testing.T) {
	for _, n := range []int{4, 5} {
		q := hypercube.New(n)
		s := NewDimOrder(q)
		for src := hypercube.Node(0); int(src) < q.Nodes(); src++ {
			for dst := hypercube.Node(0); int(dst) < q.Nodes(); dst++ {
				got, want := s.Route(src, dst, nil), ecubeOracle(t, q, src, dst)
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("Q_%d %d→%d: route %v, want %v", n, src, dst, got, want)
				}
			}
		}
	}
	q := hypercube.New(4)
	r := NewDimOrder(q).Route(0b0000, 0b1010, nil)
	if len(r) != 2 || int(r[0]) != q.EdgeID(0b0000, 1) || int(r[1]) != q.EdgeID(0b0010, 3) {
		t.Errorf("0000→1010: route %v", r)
	}
	if len(NewDimOrder(q).Route(5, 5, nil)) != 0 {
		t.Error("self route not empty")
	}
}

// Valiant is the oracle routed via midpoints drawn from the caller's
// rng, one Intn per pair — fixed points included, so the stream stays
// aligned with the pair index. Templates is DrawTemplates on a fresh
// rng seeded by seed.
func TestValiantMatchesECubeOracleViaMidpoints(t *testing.T) {
	q := hypercube.New(6)
	pairs := PermutationPairs(rand.New(rand.NewSource(4)).Perm(q.Nodes()))
	pairs = append(pairs, Pair{Src: 9, Dst: 9}, Pair{Src: 0, Dst: 0})
	const seed = 42
	rng := rand.New(rand.NewSource(seed))
	got, err := DrawTemplates(NewValiant(q), q, pairs, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	ref := rand.New(rand.NewSource(seed))
	for i, p := range pairs {
		mid := hypercube.Node(ref.Intn(q.Nodes()))
		want := append(ecubeOracle(t, q, p.Src, mid), ecubeOracle(t, q, mid, p.Dst)...)
		if !sameRoute(want, got[i].Route) || got[i].Flits != 3 {
			t.Fatalf("pair %d (%d→%d via %d): %+v, want route %v", i, p.Src, p.Dst, mid, got[i], want)
		}
	}
	if rng.Int63() != ref.Int63() {
		t.Error("DrawTemplates consumed more than one Intn per pair")
	}
	seeded, err := Templates(NewValiant(q), q, pairs, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seeded, got) {
		t.Error("Templates differs from DrawTemplates on the same seed")
	}
}

// The §7 context made measurable: deterministic e-cube routing has
// adversarial permutations with Θ(√N) link congestion; Valiant's random
// intermediate flattens it to near the average.
func TestValiantBeatsECubeOnBitReversal(t *testing.T) {
	const n = 12
	q := hypercube.New(n)
	perm := make([]int, q.Nodes())
	for v := range perm {
		perm[v] = int(bitutil.ReverseBits(uint32(v), n))
	}
	pairs := PermutationPairs(perm)
	direct, err := Templates(NewDimOrder(q), q, pairs, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	directLoad := netsim.MaxLinkLoad(direct)
	// E-cube on bit reversal: the middle link carries 2^{n/2} routes.
	if directLoad < 1<<uint(n/2-1) {
		t.Fatalf("e-cube load %d unexpectedly low (adversary broken?)", directLoad)
	}
	valiant, err := Templates(NewValiant(q), q, pairs, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	valiantLoad := netsim.MaxLinkLoad(valiant)
	if valiantLoad*4 > directLoad {
		t.Errorf("valiant load %d not ≪ e-cube load %d", valiantLoad, directLoad)
	}
	// And the measured completion time follows the congestion.
	dr, err := netsim.Simulate(direct, netsim.CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := netsim.Simulate(valiant, netsim.CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Steps >= dr.Steps {
		t.Errorf("valiant %d steps not faster than e-cube %d", vr.Steps, dr.Steps)
	}
}

// Every Valiant message is delivered, including the fixed points of
// the transpose permutation (routed out to the midpoint and back).
func TestValiantPreservesDelivery(t *testing.T) {
	const n, h = 6, 3
	q := hypercube.New(n)
	perm := make([]int, q.Nodes())
	for v := range perm {
		perm[v] = (v&(1<<h-1))<<h | v>>h
	}
	msgs, err := Templates(NewValiant(q), q, PermutationPairs(perm), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := netsim.Simulate(msgs, netsim.CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveredMsgs != len(msgs) {
		t.Errorf("delivered %d of %d", r.DeliveredMsgs, len(msgs))
	}
}

// Templates is replayable: the same (strategy state, pairs, flits,
// seed) builds identical template sets; a different seed moves the
// randomized ones.
func TestTemplatesReplayable(t *testing.T) {
	q := hypercube.New(5)
	perm := rand.New(rand.NewSource(5)).Perm(q.Nodes())
	pairs := PermutationPairs(perm)
	for _, mk := range []func() Strategy{
		func() Strategy { return NewDimOrder(q) },
		func() Strategy { return NewValiant(q) },
		func() Strategy { return NewMinimalOblivious(q) },
		func() Strategy { return NewAdaptive(q) },
	} {
		a, err := Templates(mk(), q, pairs, 2, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Templates(mk(), q, pairs, 2, 11)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed built different templates", mk().Name())
		}
	}
}

// Templates rejects degenerate flit counts and out-of-range pairs.
func TestTemplatesRejectsBadInput(t *testing.T) {
	q := hypercube.New(4)
	s := NewDimOrder(q)
	for _, flits := range []int{0, -3} {
		if _, err := Templates(s, q, []Pair{{0, 1}}, flits, 1); err == nil {
			t.Errorf("flits=%d accepted", flits)
		}
	}
	if _, err := Templates(s, q, []Pair{{0, 1 << 10}}, 1, 1); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

// MinimalOblivious's load accounting spreads a repeated demand across
// all minimal routes: routing the same (src, dst) pair n! times would
// be uniform, but it suffices that the per-link load of the first hop
// stays balanced — after k·n routes of one pair at distance n, every
// outgoing differing-dimension link at src has carried exactly k.
func TestMinimalObliviousLoadBalances(t *testing.T) {
	q := hypercube.New(4)
	m := NewMinimalOblivious(q)
	rng := rand.New(rand.NewSource(9))
	src, dst := hypercube.Node(0), hypercube.Node(0b1111)
	const rounds = 12
	for i := 0; i < rounds*4; i++ {
		checkWalk(t, q, src, dst, m.Route(src, dst, rng))
	}
	for d := 0; d < 4; d++ {
		if l := m.load[q.EdgeID(src, d)]; l != rounds {
			t.Errorf("first-hop dim %d carried %d routes, want %d", d, l, rounds)
		}
	}
	m.Reset()
	for _, l := range m.load {
		if l != 0 {
			t.Fatal("Reset left residual load")
		}
	}
}

// Run aggregates windows correctly: conservation holds over the sums,
// every arrival is injected and delivered on a clean fabric, and the
// whole run replays bit-identically.
func TestRunWindowedConservationAndReplay(t *testing.T) {
	q := hypercube.New(5)
	perm := rand.New(rand.NewSource(6)).Perm(q.Nodes())
	pairs := PermutationPairs(perm)
	tr := &netsim.Trace{}
	for i := 0; i < 300; i++ {
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: i / 2, Tmpl: int32(i % len(pairs))})
	}
	cfg := RunConfig{Flits: 3, Windows: 4, Seed: 21, Mode: netsim.CutThrough, WarmupFrac: 0.2}
	run := func() *RunResult {
		res, err := Run(NewAdaptive(q), q, pairs, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a.Windows != 4 {
		t.Fatalf("ran %d windows, want 4", a.Windows)
	}
	if a.Injected != len(tr.Arrivals) || a.DeliveredMsgs != len(tr.Arrivals) || a.FailedMsgs != 0 {
		t.Fatalf("injected %d delivered %d failed %d of %d arrivals",
			a.Injected, a.DeliveredMsgs, a.FailedMsgs, len(tr.Arrivals))
	}
	if a.FlitsMoved+a.DroppedFlits != a.InjectedHops {
		t.Fatalf("conservation violated: moved %d + dropped %d != injected hops %d",
			a.FlitsMoved, a.DroppedFlits, a.InjectedHops)
	}
	if b := run(); *a != *b {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

// SplitTrace partitions without loss and rebases each window to step 0.
func TestSplitTrace(t *testing.T) {
	tr := &netsim.Trace{}
	for i := 0; i < 17; i++ {
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: 5 + 3*i, Tmpl: int32(i)})
	}
	chunks := SplitTrace(tr, 4)
	total := 0
	for _, c := range chunks {
		if len(c.Arrivals) > 0 && c.Arrivals[0].Step != 0 {
			t.Errorf("window not rebased: first step %d", c.Arrivals[0].Step)
		}
		total += len(c.Arrivals)
	}
	if total != len(tr.Arrivals) {
		t.Errorf("windows hold %d arrivals, want %d", total, len(tr.Arrivals))
	}
}
