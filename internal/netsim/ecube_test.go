package netsim

import (
	"math/bits"

	"multipath/internal/hypercube"
)

// The route builders live in internal/routing, which imports this
// package, so the in-package tests carry this small e-cube copy to
// build their permutation workloads.

// ecubeRoute returns the link ids of the ascending-dimension route
// from src to dst on Q_n.
func ecubeRoute(q *hypercube.Q, src, dst hypercube.Node) []int {
	out := make([]int, 0, bits.OnesCount32(src^dst))
	for d := 0; d < q.Dims(); d++ {
		if (src^dst)&(1<<uint(d)) != 0 {
			out = append(out, q.EdgeID(src, d))
			src ^= 1 << uint(d)
		}
	}
	return out
}

// permMessages builds one flits-flit e-cube message per node, node i
// addressing perm[i]; fixed points keep empty routes.
func permMessages(q *hypercube.Q, perm []int, flits int) []*Message {
	msgs := make([]*Message, len(perm))
	for i, p := range perm {
		msgs[i] = &Message{Route: ecubeRoute(q, hypercube.Node(i), hypercube.Node(p)), Flits: flits}
	}
	return msgs
}
