// Package traffic builds netsim message sets from the embedding
// constructions — the glue between the structural layers (core, ccc,
// hamdecomp) and the switching simulator: width-spread paths,
// multi-copy CCC pieces, §8.1's Hamiltonian-cycle broadcast, the named
// demand patterns of the strategy race, and seeded arrival traces. It
// exists as its own package so that netsim stays free of embedding
// types (core routes its packet-cost measurement through netsim, so
// netsim importing core would cycle).
package traffic

import (
	"fmt"

	"multipath/internal/ccc"
	"multipath/internal/core"
	"multipath/internal/hamdecomp"
	"multipath/internal/hypercube"
	"multipath/internal/netsim"
)

// CCCGreedyRoute returns the CCC vertex path from ⟨l1,c1⟩ to ⟨l2,c2⟩:
// ascend levels via straight edges, taking the cross edge at every
// level whose column bit differs, until the column matches and the
// level wraps around to the destination.
func CCCGreedyRoute(n int, from, to int32) []int32 {
	c := ccc.NewCCC(n)
	cur := from
	path := []int32{cur}
	guard := 0
	for cur != to {
		guard++
		if guard > 4*n+4 {
			panic("traffic: CCC route did not converge")
		}
		l, col := c.Level(cur), c.Col(cur)
		tcol := c.Col(to)
		if (col^tcol)&(1<<uint(l)) != 0 {
			cur = c.ID(l, col^1<<uint(l))
		} else {
			cur = c.ID((l+1)%n, col)
		}
		path = append(path, cur)
	}
	return path
}

// MultiCopyCCCMessages implements §7's speedup: each host node splits
// its M-flit message into one piece per CCC copy, routing piece k on
// copy k between the CCC vertices that copy k places at the source and
// destination host nodes. Routes are host link-id sequences, so all
// pieces share the physical hypercube under the embedding's congestion
// bound of 2.
func MultiCopyCCCMessages(mc *core.MultiCopy, n int, perm []int, flits int) ([]*netsim.Message, error) {
	if flits < 1 {
		return nil, fmt.Errorf("traffic: multi-copy messages need at least 1 flit, got %d", flits)
	}
	q := mc.Host
	copies := len(mc.Copies)
	piece := (flits + copies - 1) / copies
	// Invert each copy's vertex map: host node → CCC vertex.
	inv := make([][]int32, copies)
	for k, cp := range mc.Copies {
		iv := make([]int32, q.Nodes())
		for v, h := range cp.VertexMap {
			iv[h] = int32(v)
		}
		inv[k] = iv
	}
	var msgs []*netsim.Message
	for src, dstI := range perm {
		dst := hypercube.Node(dstI)
		if hypercube.Node(src) == dst {
			continue
		}
		for k := 0; k < copies; k++ {
			vp := CCCGreedyRoute(n, inv[k][src], inv[k][dst])
			route := make([]int, 0, len(vp)-1)
			for i := 0; i+1 < len(vp); i++ {
				hu := mc.Copies[k].VertexMap[vp[i]]
				hv := mc.Copies[k].VertexMap[vp[i+1]]
				id, err := q.EdgeBetween(hu, hv)
				if err != nil {
					return nil, fmt.Errorf("traffic: copy %d route leaves dilation 1: %w", k, err)
				}
				route = append(route, id)
			}
			msgs = append(msgs, &netsim.Message{Route: route, Flits: piece})
		}
	}
	return msgs, nil
}

// PathTemplates builds one open-loop route template per disjoint path
// of each listed guest edge of a multiple-path embedding (edges nil
// selects every guest edge), each template carrying flits flits, and
// returns the per-edge index groups: groups[b] lists the template
// indices of bundle b's paths in path order, so groups[b][j] is path j
// of edges[b]. Zero-hop paths (both guest endpoints mapped to the same
// host node) keep an empty-route template so a bundle's path indexing
// stays aligned with e.Paths; the open-loop engine delivers arrivals
// on them instantly. This is the template layout the self-healing
// session (internal/selfheal) keys its reroute path cycling on.
func PathTemplates(e *core.Embedding, edges []int, flits int) ([]*netsim.Message, [][]int32, error) {
	if flits < 1 {
		return nil, nil, fmt.Errorf("traffic: path templates need at least 1 flit, got %d", flits)
	}
	if edges == nil {
		edges = make([]int, len(e.Paths))
		for i := range edges {
			edges[i] = i
		}
	}
	// Size one route arena, one header array and one group arena for
	// every path; out-of-range edges are reported by the build loop.
	paths, hops := 0, 0
	for _, ge := range edges {
		if ge < 0 || ge >= len(e.Paths) {
			continue
		}
		for _, p := range e.Paths[ge] {
			paths++
			if len(p) >= 2 {
				hops += len(p) - 1
			}
		}
	}
	b := newRouteArena(paths, hops)
	groups := make([][]int32, len(edges))
	members := make([]int32, 0, paths)
	for bi, ge := range edges {
		if ge < 0 || ge >= len(e.Paths) {
			return nil, nil, fmt.Errorf("traffic: guest edge %d out of range [0,%d)", ge, len(e.Paths))
		}
		start := len(members)
		for _, p := range e.Paths[ge] {
			members = append(members, int32(len(b.tmpls)))
			if err := b.add(e.Host, p, flits); err != nil {
				return nil, nil, err
			}
		}
		groups[bi] = members[start:len(members):len(members)]
	}
	return b.tmpls, groups, nil
}

// routeArena lays message templates out in one header array and their
// routes in one id arena, sized up front so nothing regrows.
type routeArena struct {
	ids   []int
	hdrs  []netsim.Message
	tmpls []*netsim.Message
}

func newRouteArena(msgs, hops int) *routeArena {
	if msgs == 0 {
		return &routeArena{} // no templates: tmpls stays nil
	}
	return &routeArena{
		ids:   make([]int, 0, hops),
		hdrs:  make([]netsim.Message, 0, msgs),
		tmpls: make([]*netsim.Message, 0, msgs),
	}
}

// add appends a template for host path p. A path with no edge gets a
// nil route; every other route has its capacity capped at its length,
// so appending to one route never overwrites the next.
func (b *routeArena) add(q *hypercube.Q, p core.Path, flits int) error {
	var route []int
	if len(p) >= 2 {
		start := len(b.ids)
		var err error
		if b.ids, err = q.AppendPathEdgeIDs(b.ids, p); err != nil {
			return err
		}
		route = b.ids[start:len(b.ids):len(b.ids)]
	}
	b.hdrs = append(b.hdrs, netsim.Message{Route: route, Flits: flits})
	b.tmpls = append(b.tmpls, &b.hdrs[len(b.hdrs)-1])
	return nil
}

// WidthPathMessages spreads an M-flit transfer per guest edge of a
// multiple-path embedding across its disjoint paths — the paper's §2
// use of width for throughput.
func WidthPathMessages(e *core.Embedding, flits int) ([]*netsim.Message, error) {
	if flits < 1 {
		return nil, fmt.Errorf("traffic: width-path messages need at least 1 flit, got %d", flits)
	}
	msgs, hops := 0, 0
	forEachWidthPiece(e, flits, func(p core.Path, _ int) error {
		msgs++
		hops += len(p) - 1
		return nil
	})
	b := newRouteArena(msgs, hops)
	err := forEachWidthPiece(e, flits, func(p core.Path, f int) error {
		return b.add(e.Host, p, f)
	})
	if err != nil {
		return nil, err
	}
	return b.tmpls, nil
}

// forEachWidthPiece calls fn with every path that WidthPathMessages
// sends flits on and its flit count: flits split over each guest
// edge's w paths, remainders to the earliest, skipping pieces with no
// flit or no edge.
func forEachWidthPiece(e *core.Embedding, flits int, fn func(p core.Path, f int) error) error {
	for _, ps := range e.Paths {
		w := len(ps)
		base := flits / w
		extra := flits % w
		for j, p := range ps {
			f := base
			if j < extra {
				f++
			}
			if f == 0 || len(p) < 2 {
				continue
			}
			if err := fn(p, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// BroadcastMessages models §8.1's large-copy broadcast: the source
// splits B flits into one chunk per directed Hamiltonian cycle of
// Lemma 1 and pipelines each chunk around its cycle, reaching every
// node. Completion under cut-through is (2^n - 1) + B/n - 1 steps,
// versus (2^n - 1) + B - 1 along a single cycle.
func BroadcastMessages(q *hypercube.Q, flits int, multi bool) ([]*netsim.Message, error) {
	dec, err := hamdecomp.Decompose(q.Dims())
	if err != nil {
		return nil, err
	}
	cycles := dec.Directed()
	if !multi {
		cycles = cycles[:1]
	}
	chunk := (flits + len(cycles) - 1) / len(cycles)
	var msgs []*netsim.Message
	for _, cyc := range cycles {
		route := make([]int, 0, len(cyc)-1)
		start := 0
		for i, v := range cyc {
			if v == 0 {
				start = i
				break
			}
		}
		for t := 0; t+1 < len(cyc); t++ {
			u := cyc[(start+t)%len(cyc)]
			v := cyc[(start+t+1)%len(cyc)]
			id, err := q.EdgeBetween(u, v)
			if err != nil {
				return nil, err
			}
			route = append(route, id)
		}
		msgs = append(msgs, &netsim.Message{Route: route, Flits: chunk})
	}
	return msgs, nil
}
