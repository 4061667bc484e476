// Package hypercube models the boolean hypercube Q_n as used throughout
// Greenberg & Bhatt: a directed graph on 2^n nodes with n-bit addresses
// and a directed edge between every pair of addresses differing in one
// bit. It provides edge indexing for congestion counting, node-sequence
// path validation, windows and signatures (§5.1), and the product
// partitions Q_n = Q_a × Q_b used by Theorems 1, 2 and 4.
package hypercube

import (
	"fmt"
	"math/bits"
	"slices"

	"multipath/internal/graph"
)

// Node is an n-bit hypercube address.
type Node = uint32

// Q is the n-dimensional boolean hypercube.
type Q struct {
	n int
}

// New returns Q_n. n must be between 1 and 26 (2^26 nodes · 26 dims is
// the practical ceiling for dense edge-indexed slices).
func New(n int) *Q {
	if n < 1 || n > 26 {
		panic(fmt.Sprintf("hypercube: unsupported dimension %d", n))
	}
	return &Q{n: n}
}

// Dims returns n, the number of dimensions.
func (q *Q) Dims() int { return q.n }

// Nodes returns 2^n, the number of nodes.
func (q *Q) Nodes() int { return 1 << uint(q.n) }

// DirectedEdges returns n·2^n, the number of directed edges.
func (q *Q) DirectedEdges() int { return q.n << uint(q.n) }

// Neighbor returns the neighbor of v across dimension d.
func (q *Q) Neighbor(v Node, d int) Node {
	return v ^ (1 << uint(d))
}

// Contains reports whether v is a valid address in Q_n.
func (q *Q) Contains(v Node) bool {
	return v < 1<<uint(q.n)
}

// Dim returns the dimension in which adjacent nodes u and v differ, or
// an error if they are not hypercube neighbors.
func (q *Q) Dim(u, v Node) (int, error) {
	x := u ^ v
	if x == 0 || x&(x-1) != 0 {
		return 0, fmt.Errorf("hypercube: nodes %d and %d are not adjacent", u, v)
	}
	d := bits.TrailingZeros32(x)
	if d >= q.n {
		return 0, fmt.Errorf("hypercube: nodes %d and %d differ outside Q_%d", u, v, q.n)
	}
	return d, nil
}

// Edge is a directed hypercube edge, identified by its origin node and
// the dimension it crosses.
type Edge struct {
	From Node
	Dim  int
}

// To returns the head of the edge.
func (e Edge) To() Node { return e.From ^ (1 << uint(e.Dim)) }

// EdgeID returns a dense index in [0, n·2^n) for the directed edge
// (v, v⊕2^d), suitable for slice-based congestion counters.
func (q *Q) EdgeID(v Node, d int) int {
	return int(v)*q.n + d
}

// EdgeOf returns the edge with the given dense index.
func (q *Q) EdgeOf(id int) Edge {
	return Edge{From: Node(id / q.n), Dim: id % q.n}
}

// EdgeBetween returns the dense index of the directed edge from u to v.
func (q *Q) EdgeBetween(u, v Node) (int, error) {
	d, err := q.Dim(u, v)
	if err != nil {
		return 0, err
	}
	return q.EdgeID(u, d), nil
}

// Graph materializes Q_n as a directed graph.
func (q *Q) Graph() *graph.Graph {
	g := graph.New(q.Nodes())
	for v := Node(0); q.Contains(v); v++ {
		for d := 0; d < q.n; d++ {
			g.AddEdge(int32(v), int32(q.Neighbor(v, d)))
		}
	}
	return g
}

// CheckPath verifies that p is a path in Q_n: non-empty, all nodes
// valid, and consecutive nodes adjacent. Returns the path's length in
// edges.
func (q *Q) CheckPath(p []Node) (int, error) {
	if len(p) == 0 {
		return 0, fmt.Errorf("hypercube: empty path")
	}
	for i, v := range p {
		if !q.Contains(v) {
			return 0, fmt.Errorf("hypercube: node %d at position %d outside Q_%d", v, i, q.n)
		}
		if i > 0 {
			if _, err := q.Dim(p[i-1], v); err != nil {
				return 0, err
			}
		}
	}
	return len(p) - 1, nil
}

// PathEdgeIDs returns the dense edge indices traversed by path p.
func (q *Q) PathEdgeIDs(p []Node) ([]int, error) { return q.AppendPathEdgeIDs(nil, p) }

// AppendPathEdgeIDs validates path p with CheckPath and appends the
// dense edge indices it traverses to dst, returning the extended
// slice; on error it returns dst unchanged. Builders that lay many
// routes out in one arena use it instead of PathEdgeIDs.
func (q *Q) AppendPathEdgeIDs(dst []int, p []Node) ([]int, error) {
	if _, err := q.CheckPath(p); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, len(p)-1)
	for i := 0; i+1 < len(p); i++ {
		dst = append(dst, q.EdgeID(p[i], bits.TrailingZeros32(p[i]^p[i+1])))
	}
	return dst, nil
}

// FillPathEdgeIDs32 validates path p and writes its dense directed
// edge ids into dst, which must have length len(p)-1. Ids are stored
// as int32 — n ≤ 26 keeps every id below 26·2^26 < 2^31 — and nothing
// is allocated, which is what core's route cache builder needs when it
// fills one shared arena for millions of paths.
func (q *Q) FillPathEdgeIDs32(dst []int32, p []Node) error {
	if len(p) == 0 {
		return fmt.Errorf("hypercube: empty path")
	}
	if len(dst) != len(p)-1 {
		return fmt.Errorf("hypercube: id buffer holds %d of %d edges", len(dst), len(p)-1)
	}
	limit := Node(1) << uint(q.n)
	if p[0] >= limit {
		return fmt.Errorf("hypercube: node %d at position 0 outside Q_%d", p[0], q.n)
	}
	for i := 0; i+1 < len(p); i++ {
		u, v := p[i], p[i+1]
		if v >= limit {
			return fmt.Errorf("hypercube: node %d at position %d outside Q_%d", v, i+1, q.n)
		}
		x := u ^ v
		if x == 0 || x&(x-1) != 0 {
			return fmt.Errorf("hypercube: nodes %d and %d are not adjacent", u, v)
		}
		d := bits.TrailingZeros32(x)
		dst[i] = int32(int(u)*q.n + d)
	}
	return nil
}

// String implements fmt.Stringer.
func (q *Q) String() string { return fmt.Sprintf("Q_%d", q.n) }
