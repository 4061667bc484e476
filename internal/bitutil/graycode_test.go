package bitutil

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestGrayValueSmall(t *testing.T) {
	want := []uint32{0, 1, 3, 2, 6, 7, 5, 4}
	for j, w := range want {
		if got := GrayValue(uint32(j)); got != w {
			t.Errorf("GrayValue(%d) = %d, want %d", j, got, w)
		}
	}
}

func TestGrayRankInverse(t *testing.T) {
	f := func(j uint32) bool {
		return GrayRank(GrayValue(j)) == j
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Adjacent Gray codewords differ in exactly one bit.
func TestGrayAdjacency(t *testing.T) {
	f := func(j uint32) bool {
		return bits.OnesCount32(GrayValue(j)^GrayValue(j+1)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGrayTransitionMatchesValues(t *testing.T) {
	for k := 1; k <= 12; k++ {
		size := uint32(1) << uint(k)
		for j := uint32(0); j < size; j++ {
			d := GrayTransition(j, k)
			next := GrayValue((j + 1) % size)
			if GrayValue(j)^next != 1<<uint(d) {
				t.Fatalf("k=%d j=%d: transition %d does not connect %b -> %b",
					k, j, d, GrayValue(j), next)
			}
		}
	}
}

// The paper's recursive definition G'_{i+1} = G'_i ∘ i ∘ G'_i, with
// G_k = G'_k ∘ (k-1). Verify GraySequence matches it.
func TestGraySequenceMatchesRecursiveDefinition(t *testing.T) {
	var recur func(k int) []int
	recur = func(k int) []int {
		if k == 1 {
			return []int{0}
		}
		sub := recur(k - 1)
		out := make([]int, 0, 2*len(sub)+1)
		out = append(out, sub...)
		out = append(out, k-1)
		out = append(out, sub...)
		return out
	}
	for k := 1; k <= 10; k++ {
		want := append(recur(k), k-1)
		got := GraySequence(k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: length %d, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: G_k(%d) = %d, want %d", k, i, got[i], want[i])
			}
		}
	}
}

// H_k is a Hamiltonian cycle of Q_k: all nodes distinct, consecutive
// nodes (cyclically) adjacent.
func TestHamiltonianCycleIsHamiltonian(t *testing.T) {
	for k := 1; k <= 14; k++ {
		cyc := HamiltonianCycle(k)
		size := 1 << uint(k)
		if len(cyc) != size {
			t.Fatalf("k=%d: length %d", k, len(cyc))
		}
		seen := make([]bool, size)
		for i, v := range cyc {
			if seen[v] {
				t.Fatalf("k=%d: repeated node %d", k, v)
			}
			seen[v] = true
			next := cyc[(i+1)%size]
			if bits.OnesCount32(v^next) != 1 {
				t.Fatalf("k=%d: nodes %b and %b not adjacent", k, v, next)
			}
		}
	}
}

func TestHamiltonianNodeMatchesCycle(t *testing.T) {
	const k = 9
	cyc := HamiltonianCycle(k)
	for i, v := range cyc {
		if got := HamiltonianNode(uint32(i), k); got != v {
			t.Fatalf("HamiltonianNode(%d,%d) = %d, want %d", i, k, got, v)
		}
	}
}

// Dimension-use counts (used by the paper's §2 congestion argument):
// dimension 0 carries half of all transitions.
func TestTransitionCounts(t *testing.T) {
	for k := 2; k <= 12; k++ {
		counts := TransitionCounts(k)
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != 1<<uint(k) {
			t.Fatalf("k=%d: total %d", k, total)
		}
		if counts[0] != 1<<uint(k-1) {
			t.Errorf("k=%d: dim 0 used %d times, want %d", k, counts[0], 1<<uint(k-1))
		}
		if counts[k-1] != 2 {
			t.Errorf("k=%d: top dim used %d times, want 2", k, counts[k-1])
		}
		for d := 1; d < k-1; d++ {
			if counts[d] != 1<<uint(k-1-d) {
				t.Errorf("k=%d: dim %d used %d times, want %d", k, d, counts[d], 1<<uint(k-1-d))
			}
		}
	}
}

// TestGrayWirelength pins the reflected Gray code's wirelengths
// exactly. Placing node v of Q_n at position GrayRank(v) and summing,
// over the n·2^(n−1) edges of Q_n, the distance between the endpoints'
// positions gives
//
//   - on the cycle C_(2^n) (distance min(δ, 2^n − δ)): the
//     Chavez–Trapp minimum 3·2^(2n−3) − 2^(n−1), which Liu–Tang
//     (arXiv:2108.08177) prove Gray coding attains;
//   - on the path P_(2^n) (distance δ): Harper's minimum
//     2^(n−1)·(2^n − 1).
func TestGrayWirelength(t *testing.T) {
	for n := 2; n <= 12; n++ {
		size := 1 << n
		circular, linear := 0, 0
		for v := 0; v < size; v++ {
			for d := 0; d < n; d++ {
				u := v ^ 1<<d
				if u < v {
					continue
				}
				delta := int(GrayRank(uint32(v))) - int(GrayRank(uint32(u)))
				if delta < 0 {
					delta = -delta
				}
				linear += delta
				circular += min(delta, size-delta)
			}
		}
		if want := 3<<(2*n-3) - 1<<(n-1); circular != want {
			t.Errorf("n=%d: circular wirelength %d, want 3·2^(2n−3) − 2^(n−1) = %d", n, circular, want)
		}
		if want := (1 << (n - 1)) * (size - 1); linear != want {
			t.Errorf("n=%d: linear wirelength %d, want 2^(n−1)(2^n − 1) = %d", n, linear, want)
		}
	}
}
