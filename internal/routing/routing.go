// Package routing is the strategy zoo raced against the paper's
// constructions: pluggable per-message route generators over the dense
// directed edge ids of Q_n, feeding the netsim engine as templates.
// Greenberg & Bhatt's contribution is *constructed* multipaths with
// provably low congestion; the standard rivals are single-path routers
// — deterministic e-cube bit-fixing (DimOrder), Valiant's randomized
// two-phase routing via a random intermediate (Valiant), minimal-
// oblivious routing with per-link load accounting (MinimalOblivious),
// and a queue-depth-driven adaptive router re-planned between
// open-loop measurement windows (Adaptive). E29 (cmd/mpbench) runs the
// head-to-head.
//
// This package is the repository's one route library: the §7
// single-path baselines (E12, E17, E18, routesim, the examples) draw
// their e-cube and Valiant routes from DimOrder and Valiant; netsim
// only simulates the routes it is handed. Template provenance, not
// engine semantics: a Strategy only decides which dense edge ids a
// message's route lists, and the tests pin DimOrder and Valiant
// against an independent e-cube oracle.
//
// Determinism: every strategy draws randomness only from the *rand.Rand
// passed to Route. The batch builder DrawTemplates threads the caller's
// rng through every route in pair order, and Templates derives that rng
// from an explicit seed, so a (strategy, pairs, seed) triple always
// rebuilds the same templates — the replay contract E29's
// seed-replayable points rest on. Stateful strategies (MinimalOblivious
// load tables, Adaptive costs) evolve deterministically too: state
// updates happen in Route, which the batch builder calls in pair order.
package routing

import (
	"fmt"
	"math/bits"
	"math/rand"

	"multipath/internal/hypercube"
	"multipath/internal/netsim"
)

// Strategy produces one message's route: the dense directed edge ids
// (hypercube.Q.EdgeID order, int32 — n ≤ 26 keeps every id below 2^31)
// of a walk from src to dst. Implementations must be deterministic
// given the rng stream and their own prior Route calls; they must not
// hold rng beyond the call.
type Strategy interface {
	// Name is the stable identifier used in benchmark records and CLI
	// flags ("dimorder", "valiant", ...).
	Name() string
	// Route returns the dense edge ids of a src→dst walk. src == dst
	// yields an empty route (the engine delivers it instantly). rng is
	// the caller's seeded stream; deterministic strategies ignore it.
	Route(src, dst hypercube.Node, rng *rand.Rand) []int32
}

// Pair is one traffic demand: a source and destination node.
type Pair struct {
	Src, Dst hypercube.Node
}

// PermutationPairs converts a permutation (node i → perm[i]) into the
// pair list the batch builder consumes, keeping fixed points as
// zero-hop pairs so template i is node i's message.
func PermutationPairs(perm []int) []Pair {
	pairs := make([]Pair, len(perm))
	for i, p := range perm {
		pairs[i] = Pair{Src: hypercube.Node(i), Dst: hypercube.Node(p)}
	}
	return pairs
}

// Templates builds one flits-flit route template per pair, drawing
// every route from s in pair order with a single rng seeded by seed —
// the batch form internal/traffic's pattern generators and the E29
// race consume. The same (s-state, pairs, flits, seed) always rebuilds
// identical templates.
func Templates(s Strategy, q *hypercube.Q, pairs []Pair, flits int, seed int64) ([]*netsim.Message, error) {
	return DrawTemplates(s, q, pairs, flits, rand.New(rand.NewSource(seed)))
}

// DrawTemplates is Templates drawing from the caller's rng, for callers
// that thread one stream through several builds (E18 and routesim draw
// their Valiant sets after the permutation from the same rng).
func DrawTemplates(s Strategy, q *hypercube.Q, pairs []Pair, flits int, rng *rand.Rand) ([]*netsim.Message, error) {
	if flits < 1 {
		return nil, fmt.Errorf("routing: templates need at least 1 flit, got %d", flits)
	}
	msgs := make([]*netsim.Message, len(pairs))
	for i, p := range pairs {
		if !q.Contains(p.Src) || !q.Contains(p.Dst) {
			return nil, fmt.Errorf("routing: pair %d (%d→%d) outside %v", i, p.Src, p.Dst, q)
		}
		ids := s.Route(p.Src, p.Dst, rng)
		route := make([]int, len(ids))
		for j, id := range ids {
			route[j] = int(id)
		}
		msgs[i] = &netsim.Message{Route: route, Flits: flits}
	}
	return msgs, nil
}

// appendDimOrder appends the ascending-dimension (e-cube) route from
// src to dst.
func appendDimOrder(q *hypercube.Q, out []int32, src, dst hypercube.Node) []int32 {
	cur := src
	for d := 0; d < q.Dims(); d++ {
		if (cur^dst)&(1<<uint(d)) != 0 {
			out = append(out, int32(q.EdgeID(cur, d)))
			cur ^= 1 << uint(d)
		}
	}
	return out
}

// DimOrder is deterministic e-cube routing: fix the differing bits in
// ascending dimension order. The deadlock-free classic, and the
// baseline every rival is normalized against.
type DimOrder struct {
	q *hypercube.Q
}

// NewDimOrder returns the e-cube strategy on q.
func NewDimOrder(q *hypercube.Q) *DimOrder { return &DimOrder{q: q} }

// Name implements Strategy.
func (d *DimOrder) Name() string { return "dimorder" }

// Route implements Strategy. rng is unused: the route is a pure
// function of (src, dst).
func (d *DimOrder) Route(src, dst hypercube.Node, _ *rand.Rand) []int32 {
	if src == dst {
		return nil
	}
	out := make([]int32, 0, bits.OnesCount32(src^dst))
	return appendDimOrder(d.q, out, src, dst)
}

// Valiant is randomized two-phase routing: e-cube to a uniformly
// random intermediate node, then e-cube to the destination. With high
// probability no link carries more than O(1) times the average load on
// any permutation — the standard fix for e-cube's adversarial
// patterns. Each Route call draws exactly one Intn, fixed points
// included, so a permutation's routes depend only on the rng stream.
type Valiant struct {
	q *hypercube.Q
}

// NewValiant returns the two-phase strategy on q.
func NewValiant(q *hypercube.Q) *Valiant { return &Valiant{q: q} }

// Name implements Strategy.
func (v *Valiant) Name() string { return "valiant" }

// Route implements Strategy.
func (v *Valiant) Route(src, dst hypercube.Node, rng *rand.Rand) []int32 {
	mid := hypercube.Node(rng.Intn(v.q.Nodes()))
	out := make([]int32, 0, bits.OnesCount32(src^mid)+bits.OnesCount32(mid^dst))
	out = appendDimOrder(v.q, out, src, mid)
	return appendDimOrder(v.q, out, mid, dst)
}

// MinimalOblivious routes minimally (every hop fixes a differing
// dimension) but picks the *order* of dimensions randomly, biased by a
// per-link load table: at each hop it crosses the least-loaded
// candidate link, breaking ties uniformly, and charges the chosen link
// one unit. With a fresh table this is a uniformly random minimal
// order; as routes accumulate, the accounting spreads a batch across
// the minimal-route lattice instead of funneling it the way a fixed
// dimension order does. The table persists across Route calls (that is
// the point) — Reset clears it between independent batches.
type MinimalOblivious struct {
	q    *hypercube.Q
	load []int32 // routes charged to each dense directed link
}

// NewMinimalOblivious returns the load-accounted minimal strategy on q.
func NewMinimalOblivious(q *hypercube.Q) *MinimalOblivious {
	return &MinimalOblivious{q: q, load: make([]int32, q.DirectedEdges())}
}

// Name implements Strategy.
func (m *MinimalOblivious) Name() string { return "minimal" }

// Reset clears the load table: the next batch starts unbiased.
func (m *MinimalOblivious) Reset() {
	for i := range m.load {
		m.load[i] = 0
	}
}

// Route implements Strategy.
func (m *MinimalOblivious) Route(src, dst hypercube.Node, rng *rand.Rand) []int32 {
	if src == dst {
		return nil
	}
	out := make([]int32, 0, bits.OnesCount32(src^dst))
	cur := src
	for cur != dst {
		// Reservoir-sample uniformly among the minimum-load candidate
		// links (one per differing dimension).
		best, ties, chosen := int32(1)<<30, 0, -1
		for d := 0; d < m.q.Dims(); d++ {
			if (cur^dst)&(1<<uint(d)) == 0 {
				continue
			}
			l := m.load[m.q.EdgeID(cur, d)]
			switch {
			case l < best:
				best, ties, chosen = l, 1, d
			case l == best:
				ties++
				if rng.Intn(ties) == 0 {
					chosen = d
				}
			}
		}
		id := m.q.EdgeID(cur, chosen)
		m.load[id]++
		out = append(out, int32(id))
		cur ^= 1 << uint(chosen)
	}
	return out
}
