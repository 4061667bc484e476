package traffic

import (
	"fmt"
	"math/rand"

	"multipath/internal/bitutil"
	"multipath/internal/core"
	"multipath/internal/hypercube"
	"multipath/internal/netsim"
	"multipath/internal/routing"
)

// This file generates the demand side of the E29 strategy race: named
// traffic patterns as (src, dst) pair lists for the routing strategy
// zoo, and the permutation forms of the two e-cube adversaries that
// the pair lists are built on. Unlike routing.PermutationPairs (which
// keeps fixed points as zero-hop pairs for index alignment), these skip
// self-pairs — a race measures routed traffic, and a zero-hop message
// says nothing about a strategy. Preconditions are checked up front
// and rejected with errors instead of silently emitting degenerate or
// non-permutation demands: transpose needs an even dimension count,
// tornado a node offset strictly inside (0, 2^n).

// Patterns lists the pattern names PatternPairs accepts, in the
// canonical race order.
var Patterns = []string{"permutation", "transpose", "bitreversal", "hotspot", "tornado"}

// movedPairs returns the pairs v → perm[v] of a permutation that move
// v, in node order.
func movedPairs(perm []int) []routing.Pair {
	pairs := make([]routing.Pair, 0, len(perm))
	for v, p := range perm {
		if v != p {
			pairs = append(pairs, routing.Pair{Src: hypercube.Node(v), Dst: hypercube.Node(p)})
		}
	}
	return pairs
}

// PermutationPairs draws a uniform random permutation from seed and
// returns its non-fixed pairs.
func PermutationPairs(q *hypercube.Q, seed int64) []routing.Pair {
	return movedPairs(rand.New(rand.NewSource(seed)).Perm(q.Nodes()))
}

// TransposePermutation maps each node of Q_n to its address with the
// high and low halves swapped (matrix transpose), the classic e-cube
// adversary. n must be even — an odd split does not even permute the
// address space.
func TransposePermutation(n int) ([]int, error) {
	if n%2 != 0 {
		return nil, fmt.Errorf("traffic: transpose needs an even dimension count, got Q_%d", n)
	}
	h := uint(n / 2)
	mask := 1<<h - 1
	perm := make([]int, 1<<uint(n))
	for v := range perm {
		perm[v] = (v&mask)<<h | v>>h
	}
	return perm, nil
}

// TransposePairs is TransposePermutation's non-fixed pairs on q.
func TransposePairs(q *hypercube.Q) ([]routing.Pair, error) {
	perm, err := TransposePermutation(q.Dims())
	if err != nil {
		return nil, err
	}
	return movedPairs(perm), nil
}

// BitReversalPermutation maps each node of Q_n to the reversal of its
// n-bit address, the other standard worst case for dimension-order
// routing: e-cube routes funnel 2^{n/2} messages through single links.
func BitReversalPermutation(n int) []int {
	perm := make([]int, 1<<uint(n))
	for v := range perm {
		perm[v] = int(bitutil.ReverseBits(uint32(v), n))
	}
	return perm
}

// BitReversalPairs is BitReversalPermutation's non-fixed pairs on q.
func BitReversalPairs(q *hypercube.Q) []routing.Pair {
	return movedPairs(BitReversalPermutation(q.Dims()))
}

// HotspotPairs points every other node at the hot node — the many-to-
// one demand where feedback routing has the most to win.
func HotspotPairs(q *hypercube.Q, hot hypercube.Node) ([]routing.Pair, error) {
	if !q.Contains(hot) {
		return nil, fmt.Errorf("traffic: hotspot node %d outside Q_%d", hot, q.Dims())
	}
	pairs := make([]routing.Pair, 0, q.Nodes()-1)
	for v := 0; v < q.Nodes(); v++ {
		if src := hypercube.Node(v); src != hot {
			pairs = append(pairs, routing.Pair{Src: src, Dst: hot})
		}
	}
	return pairs, nil
}

// TornadoPairs sends node v to (v+k) mod 2^n — the shifted demand
// whose name comes from torus routing. k must satisfy 0 < k < 2^n;
// k = 0 is all self-messages and anything outside wraps onto a smaller
// shift, both silent lies about the intended demand.
func TornadoPairs(q *hypercube.Q, k int) ([]routing.Pair, error) {
	if k <= 0 || k >= q.Nodes() {
		return nil, fmt.Errorf("traffic: tornado offset must be in (0,%d), got %d", q.Nodes(), k)
	}
	pairs := make([]routing.Pair, 0, q.Nodes())
	for v := 0; v < q.Nodes(); v++ {
		pairs = append(pairs, routing.Pair{
			Src: hypercube.Node(v),
			Dst: hypercube.Node((v + k) % q.Nodes()),
		})
	}
	return pairs, nil
}

// PatternPairs dispatches on a pattern name from Patterns, using the
// canonical defaults: hotspot targets node 0, tornado shifts by
// 2^(n-1)−1 (clamped to 1 on Q_1) so the offset touches many
// dimensions instead of flipping one bit, and permutation draws from
// seed (the only randomized pattern).
func PatternPairs(q *hypercube.Q, pattern string, seed int64) ([]routing.Pair, error) {
	switch pattern {
	case "permutation":
		return PermutationPairs(q, seed), nil
	case "transpose":
		return TransposePairs(q)
	case "bitreversal":
		return BitReversalPairs(q), nil
	case "hotspot":
		return HotspotPairs(q, 0)
	case "tornado":
		k := q.Nodes()/2 - 1
		if k < 1 {
			k = 1
		}
		return TornadoPairs(q, k)
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q (have %v)", pattern, Patterns)
	}
}

// PatternTemplates is the one-call demand builder for a strategy race
// point: generate the pattern's pairs, then draw each pair's route
// template from the strategy. The pairs come back too — open-loop
// traces index them.
func PatternTemplates(s routing.Strategy, q *hypercube.Q, pattern string, flits int, seed int64) ([]*netsim.Message, []routing.Pair, error) {
	pairs, err := PatternPairs(q, pattern, seed)
	if err != nil {
		return nil, nil, err
	}
	tmpls, err := routing.Templates(s, q, pairs, flits, seed)
	if err != nil {
		return nil, nil, err
	}
	return tmpls, pairs, nil
}

// DisjointPathTemplates builds the paper-side contender for the race:
// each pair's flits split across w = min(n, flits) of its n edge-
// disjoint paths (core.DisjointPaths, Theorem only needs distinct
// endpoints — self-pairs keep w empty-route pieces so indexing stays
// pair-major). Piece j of pair i is template i*w + j; flit remainders
// go to the earliest pieces, mirroring WidthPathMessages. Returns the
// templates and w so callers can group pieces back into logical
// messages.
func DisjointPathTemplates(q *hypercube.Q, pairs []routing.Pair, flits int) ([]*netsim.Message, int, error) {
	if flits < 1 {
		return nil, 0, fmt.Errorf("traffic: disjoint-path templates need at least 1 flit, got %d", flits)
	}
	w := q.Dims()
	if flits < w {
		w = flits
	}
	tmpls := make([]*netsim.Message, 0, len(pairs)*w)
	base, extra := flits/w, flits%w
	for _, pr := range pairs {
		if !q.Contains(pr.Src) || !q.Contains(pr.Dst) {
			return nil, 0, fmt.Errorf("traffic: pair (%d,%d) outside Q_%d", pr.Src, pr.Dst, q.Dims())
		}
		var paths []core.Path
		if pr.Src != pr.Dst {
			paths = core.DisjointPaths(q, pr.Src, pr.Dst)
		}
		for j := 0; j < w; j++ {
			f := base
			if j < extra {
				f++
			}
			var ids []int
			if j < len(paths) && len(paths[j]) >= 2 {
				var err error
				if ids, err = q.PathEdgeIDs(paths[j]); err != nil {
					return nil, 0, err
				}
			}
			tmpls = append(tmpls, &netsim.Message{Route: ids, Flits: f})
		}
	}
	return tmpls, w, nil
}
