package traffic

import (
	"testing"

	"multipath/internal/hypercube"
	"multipath/internal/routing"
)

// Each named pattern emits a valid demand on a legal cube: pairs are
// in range, never self-addressed, and deterministic in (pattern, seed).
func TestPatternPairsValidDemands(t *testing.T) {
	q := hypercube.New(6)
	for _, pat := range Patterns {
		pairs, err := PatternPairs(q, pat, 3)
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		if len(pairs) == 0 {
			t.Fatalf("%s: empty demand", pat)
		}
		for _, p := range pairs {
			if !q.Contains(p.Src) || !q.Contains(p.Dst) {
				t.Fatalf("%s: pair (%d,%d) outside Q_6", pat, p.Src, p.Dst)
			}
			if p.Src == p.Dst {
				t.Fatalf("%s: self-pair at node %d", pat, p.Src)
			}
		}
		again, err := PatternPairs(q, pat, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(pairs) {
			t.Fatalf("%s: same seed gave %d then %d pairs", pat, len(pairs), len(again))
		}
		for i := range pairs {
			if pairs[i] != again[i] {
				t.Fatalf("%s: pair %d moved between identical calls", pat, i)
			}
		}
	}
	if _, err := PatternPairs(q, "teleport", 1); err == nil {
		t.Error("unknown pattern name accepted")
	}
}

func TestBitReversalPermutation(t *testing.T) {
	p := BitReversalPermutation(4)
	if p[0b0001] != 0b1000 || p[0b1100] != 0b0011 || p[0] != 0 {
		t.Fatalf("bit reversal wrong: %v", p[:16])
	}
	// Involution.
	for v, w := range p {
		if p[w] != v {
			t.Fatalf("not an involution at %d", v)
		}
	}
}

// Transpose permutes Q_n for every even n and is an involution; an odd
// n is rejected, since a split into unequal halves maps two addresses
// to one (on Q_3 both 1 and 4 would go to 2).
func TestTransposePermutation(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		p, err := TransposePermutation(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != 1<<uint(n) {
			t.Fatalf("n=%d: %d entries", n, len(p))
		}
		hit := make([]bool, len(p))
		for v, w := range p {
			if w < 0 || w >= len(p) || hit[w] {
				t.Fatalf("n=%d: not a permutation at %d → %d", n, v, w)
			}
			hit[w] = true
			if p[w] != v {
				t.Fatalf("n=%d: not an involution at %d", n, v)
			}
		}
	}
	p, _ := TransposePermutation(6)
	if p[0b000111] != 0b111000 {
		t.Fatalf("transpose wrong: %b", p[0b000111])
	}
	for _, n := range []int{1, 3, 5} {
		_, err := TransposePermutation(n)
		_, pairErr := TransposePairs(hypercube.New(n))
		if err == nil || pairErr == nil || err.Error() != pairErr.Error() {
			t.Errorf("n=%d: permutation err %v, pairs err %v", n, err, pairErr)
		}
	}
}

// Transpose and bit-reversal are involutions: applying the map twice
// is the identity, so every pair's reverse is also in the demand.
func TestPatternInvolutions(t *testing.T) {
	q := hypercube.New(6)
	tp, err := TransposePairs(q)
	if err != nil {
		t.Fatal(err)
	}
	for name, pairs := range map[string][]routing.Pair{"transpose": tp, "bitreversal": BitReversalPairs(q)} {
		fwd := make(map[routing.Pair]bool, len(pairs))
		for _, p := range pairs {
			fwd[p] = true
		}
		for _, p := range pairs {
			if !fwd[routing.Pair{Src: p.Dst, Dst: p.Src}] {
				t.Errorf("%s: (%d,%d) present but its reverse missing", name, p.Src, p.Dst)
			}
		}
	}
}

// Preconditions reject invalid dimensions and parameters up front
// instead of silently emitting self-messages or non-permutations.
func TestPatternPreconditions(t *testing.T) {
	odd := hypercube.New(5)
	even := hypercube.New(4)
	cases := []struct {
		name    string
		run     func() error
		wantErr bool
	}{
		{"transpose odd n", func() error { _, err := TransposePairs(odd); return err }, true},
		{"transpose even n", func() error { _, err := TransposePairs(even); return err }, false},
		{"hotspot out of range", func() error { _, err := HotspotPairs(even, 1<<10); return err }, true},
		{"hotspot in range", func() error { _, err := HotspotPairs(even, 5); return err }, false},
		{"tornado k=0", func() error { _, err := TornadoPairs(even, 0); return err }, true},
		{"tornado k=-2", func() error { _, err := TornadoPairs(even, -2); return err }, true},
		{"tornado k=2^n", func() error { _, err := TornadoPairs(even, even.Nodes()); return err }, true},
		{"tornado k=1", func() error { _, err := TornadoPairs(even, 1); return err }, false},
		{"tornado k=2^n-1", func() error { _, err := TornadoPairs(even, even.Nodes()-1); return err }, false},
		{"dispatch transpose odd n", func() error { _, err := PatternPairs(odd, "transpose", 0); return err }, true},
	}
	for _, c := range cases {
		if err := c.run(); (err != nil) != c.wantErr {
			t.Errorf("%s: err=%v, wantErr=%v", c.name, err, c.wantErr)
		}
	}
}

// The paper-side contender: every pair becomes exactly w = min(n,
// flits) pieces whose flit counts sum to the message size, with each
// non-degenerate piece on one of the pair's edge-disjoint paths.
func TestDisjointPathTemplates(t *testing.T) {
	q := hypercube.New(4)
	pairs := []routing.Pair{{Src: 0, Dst: 15}, {Src: 3, Dst: 3}, {Src: 7, Dst: 8}}
	for _, flits := range []int{1, 3, 4, 11} {
		tmpls, w, err := DisjointPathTemplates(q, pairs, flits)
		if err != nil {
			t.Fatal(err)
		}
		wantW := min(4, flits)
		if w != wantW {
			t.Fatalf("flits=%d: width %d, want %d", flits, w, wantW)
		}
		if len(tmpls) != len(pairs)*w {
			t.Fatalf("flits=%d: %d templates, want %d", flits, len(tmpls), len(pairs)*w)
		}
		for i, pr := range pairs {
			sum := 0
			for j := 0; j < w; j++ {
				m := tmpls[i*w+j]
				sum += m.Flits
				if pr.Src == pr.Dst {
					if len(m.Route) != 0 {
						t.Fatalf("self-pair piece %d has a route", j)
					}
					continue
				}
				cur := pr.Src
				for _, id := range m.Route {
					e := q.EdgeOf(id)
					if e.From != cur {
						t.Fatalf("pair %d piece %d: disconnected route", i, j)
					}
					cur = e.To()
				}
				if cur != pr.Dst {
					t.Fatalf("pair %d piece %d ends at %d, want %d", i, j, cur, pr.Dst)
				}
			}
			if sum != flits {
				t.Fatalf("pair %d pieces carry %d flits, want %d", i, sum, flits)
			}
		}
		// Pieces of one pair are edge-disjoint.
		seen := map[int]bool{}
		for j := 0; j < w; j++ {
			for _, id := range tmpls[j].Route {
				if seen[id] {
					t.Fatalf("flits=%d: pair 0 pieces share link %d", flits, id)
				}
				seen[id] = true
			}
		}
	}
	if _, _, err := DisjointPathTemplates(q, pairs, 0); err == nil {
		t.Error("flits=0 accepted")
	}
	if _, _, err := DisjointPathTemplates(q, []routing.Pair{{Src: 0, Dst: 1 << 20}}, 2); err == nil {
		t.Error("out-of-range pair accepted")
	}
}
