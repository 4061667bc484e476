package faults

import (
	"reflect"
	"testing"

	"multipath/internal/hypercube"
)

func TestEmptySchedule(t *testing.T) {
	for _, s := range []*Schedule{nil, NewSchedule()} {
		if !s.Empty() {
			t.Error("schedule not empty")
		}
		if s.FaultyLinks() != 0 || s.Horizon() != 0 || len(s.Links()) != 0 {
			t.Error("empty schedule reports faults")
		}
		down, perm := s.Status(3, 100)
		if down || perm {
			t.Error("empty schedule downs a link")
		}
	}
}

// A transient window that recovers at or before its start covers no
// step; the schedule must drop it so EverDown/FaultyLinks stay
// consistent with Status. (Found by FuzzScheduleInvariants.)
func TestEmptyWindowIgnored(t *testing.T) {
	s := NewSchedule().FailLinkTransient(1, 10, 10).FailLinkTransient(2, 10, 3)
	if !s.Empty() || s.FaultyLinks() != 0 || s.EverDown(1) || s.EverDown(2) {
		t.Errorf("empty windows counted: %d faulty links", s.FaultyLinks())
	}
	for step := 1; step <= 12; step++ {
		if down, _ := s.Status(1, step); down {
			t.Errorf("link 1 down at step %d under an empty window", step)
		}
	}
	if s.Horizon() != 0 {
		t.Errorf("horizon %d, want 0", s.Horizon())
	}
}

func TestPermanentWindow(t *testing.T) {
	s := NewSchedule().FailLink(7, 5)
	for step, want := range map[int]bool{1: false, 4: false, 5: true, 6: true, 1000: true} {
		down, perm := s.Status(7, step)
		if down != want || perm != want {
			t.Errorf("step %d: down=%v perm=%v, want %v", step, down, perm, want)
		}
	}
	if down, _ := s.Status(8, 5); down {
		t.Error("unrelated link down")
	}
	if s.Horizon() != 5 {
		t.Errorf("horizon %d, want 5", s.Horizon())
	}
	if s.FaultyLinks() != 1 || !s.EverDown(7) || s.EverDown(8) {
		t.Error("static view wrong")
	}
}

func TestTransientWindow(t *testing.T) {
	s := NewSchedule().FailLinkTransient(2, 3, 9)
	for step, want := range map[int]bool{2: false, 3: true, 8: true, 9: false, 20: false} {
		down, perm := s.Status(2, step)
		if down != want {
			t.Errorf("step %d: down=%v, want %v", step, down, want)
		}
		if perm {
			t.Errorf("step %d: transient outage reported permanent", step)
		}
	}
	if s.Horizon() != 9 {
		t.Errorf("horizon %d, want 9", s.Horizon())
	}
}

// A transient window layered over a permanent one: permanence must
// surface whenever any covering window never closes.
func TestOverlappingWindows(t *testing.T) {
	s := NewSchedule().FailLinkTransient(4, 2, 6).FailLink(4, 4)
	down, perm := s.Status(4, 3)
	if !down || perm {
		t.Errorf("step 3: down=%v perm=%v, want down transient", down, perm)
	}
	down, perm = s.Status(4, 5)
	if !down || !perm {
		t.Errorf("step 5: down=%v perm=%v, want down permanent", down, perm)
	}
	if s.FaultyLinks() != 1 {
		t.Errorf("FaultyLinks %d, want 1 (same link twice)", s.FaultyLinks())
	}
}

func TestBurst(t *testing.T) {
	s := Burst([]int{1, 5, 9}, 10, 20)
	for _, l := range []int{1, 5, 9} {
		if down, _ := s.Status(l, 15); !down {
			t.Errorf("link %d not down in burst", l)
		}
		if down, _ := s.Status(l, 20); down {
			t.Errorf("link %d down after burst", l)
		}
	}
	if got := s.Links(); len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 9 {
		t.Errorf("Links() = %v", got)
	}
}

func TestFailNode(t *testing.T) {
	q := hypercube.New(4)
	v := hypercube.Node(5)
	s := NewSchedule().FailNode(q, v, 1)
	// All 2·n incident directed links are down; every other link is up.
	want := make(map[int]bool)
	for d := 0; d < q.Dims(); d++ {
		want[q.EdgeID(v, d)] = true
		want[q.EdgeID(q.Neighbor(v, d), d)] = true
	}
	if len(want) != 2*q.Dims() {
		t.Fatalf("expected %d distinct incident links, got %d", 2*q.Dims(), len(want))
	}
	for id := 0; id < q.DirectedEdges(); id++ {
		down, perm := s.Status(id, 1)
		if down != want[id] {
			t.Errorf("link %d: down=%v, want %v", id, down, want[id])
		}
		if down && !perm {
			t.Errorf("link %d: node fault not permanent", id)
		}
	}
}

func TestBernoulliDeterministicAndMonotone(t *testing.T) {
	const links = 2048
	a := Bernoulli(links, 0.05, 42)
	b := Bernoulli(links, 0.05, 42)
	if got, want := a.FaultyLinks(), b.FaultyLinks(); got != want {
		t.Fatalf("same seed differs: %d vs %d", got, want)
	}
	for _, l := range a.Links() {
		if !b.EverDown(l) {
			t.Fatalf("same seed differs on link %d", l)
		}
	}
	// Seed-coupled monotonicity: the p=0.02 faulty set is a subset of
	// the p=0.1 set for the same seed.
	lo := Bernoulli(links, 0.02, 7)
	hi := Bernoulli(links, 0.1, 7)
	for _, l := range lo.Links() {
		if !hi.EverDown(l) {
			t.Fatalf("link %d faulty at p=0.02 but not p=0.1", l)
		}
	}
	if lo.FaultyLinks() > hi.FaultyLinks() {
		t.Errorf("faulty count not monotone: %d > %d", lo.FaultyLinks(), hi.FaultyLinks())
	}
	if z := Bernoulli(links, 0, 7); !z.Empty() {
		t.Error("p=0 produced faults")
	}
}

func TestPerStepDeterministicAndBounded(t *testing.T) {
	m := &PerStep{P: 0.3, Seed: 99}
	if m.Horizon() != -1 {
		t.Errorf("PerStep horizon %d, want -1", m.Horizon())
	}
	downs := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		d1, p1 := m.Status(i%17, i/17+1)
		d2, p2 := m.Status(i%17, i/17+1)
		if d1 != d2 || p1 != p2 {
			t.Fatal("PerStep not deterministic")
		}
		if p1 {
			t.Fatal("PerStep reported a permanent outage")
		}
		if d1 {
			downs++
		}
	}
	frac := float64(downs) / trials
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("empirical down fraction %.3f far from P=0.3", frac)
	}
	if d, _ := (&PerStep{P: 0, Seed: 1}).Status(0, 1); d {
		t.Error("P=0 downed a link")
	}
}

func TestBernoulliWindowCoupledDraw(t *testing.T) {
	const links, seed = 64, 11
	perm := Bernoulli(links, 0.15, seed)
	win := BernoulliWindow(links, 0.15, seed, 5, 20)
	if got, want := win.Links(), perm.Links(); !reflect.DeepEqual(got, want) {
		t.Fatalf("window changed the draw: %v vs %v", got, want)
	}
	for _, l := range win.Links() {
		if d, _ := win.Status(l, 4); d {
			t.Fatalf("link %d down before window opens", l)
		}
		d, p := win.Status(l, 5)
		if !d || p {
			t.Fatalf("link %d at step 5: down=%v permanent=%v, want transient outage", l, d, p)
		}
		if d, _ := win.Status(l, 20); d {
			t.Fatalf("link %d still down at recovery step", l)
		}
	}
	if h := win.Horizon(); h != 20 {
		t.Fatalf("window horizon %d, want 20", h)
	}
	// until <= 0 makes the outage permanent — then BernoulliWindow from
	// step 1 is exactly Bernoulli.
	if got := BernoulliWindow(links, 0.15, seed, 1, 0); !reflect.DeepEqual(got, perm) {
		t.Fatal("permanent window from step 1 differs from Bernoulli")
	}
}

func TestUnionMergesSchedules(t *testing.T) {
	a := NewSchedule().FailLink(3, 2).FailLinkTransient(5, 1, 4)
	b := NewSchedule().FailLink(5, 10).FailLink(7, 1)
	u := Union(a, b)
	if got, want := u.Links(), []int{3, 5, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("union links %v, want %v", got, want)
	}
	// Link 5 carries windows from both sides: transient [1,4) from a,
	// permanent from 10 from b.
	if d, p := u.Status(5, 2); !d || p {
		t.Fatalf("link 5 step 2: down=%v permanent=%v, want transient", d, p)
	}
	if d, _ := u.Status(5, 6); d {
		t.Fatal("link 5 down between the two outages")
	}
	if d, p := u.Status(5, 12); !d || !p {
		t.Fatalf("link 5 step 12: down=%v permanent=%v, want permanent", d, p)
	}
	if h := u.Horizon(); h != 10 {
		t.Fatalf("union horizon %d, want 10", h)
	}
	// Union must copy, not alias: growing the union leaves the inputs
	// untouched.
	u.FailLink(9, 1)
	if a.EverDown(9) || b.EverDown(9) {
		t.Fatal("union aliased its inputs")
	}
	if got := Union(nil, b); !reflect.DeepEqual(got.Links(), b.Links()) {
		t.Fatal("nil left argument not handled")
	}
	if got := Union(a, nil); !reflect.DeepEqual(got.Links(), a.Links()) {
		t.Fatal("nil right argument not handled")
	}
}

func TestHash01RangeAndDeterminism(t *testing.T) {
	seen := map[float64]int{}
	for i := 0; i < 2000; i++ {
		v := Hash01(42, i%37, i/37)
		if v < 0 || v >= 1 {
			t.Fatalf("Hash01 out of [0,1): %v", v)
		}
		if v != Hash01(42, i%37, i/37) {
			t.Fatal("Hash01 not deterministic")
		}
		seen[v]++
	}
	if len(seen) < 1900 {
		t.Fatalf("Hash01 collides too much: %d distinct of 2000", len(seen))
	}
	if Hash01(1, 2, 3) == Hash01(2, 2, 3) {
		t.Fatal("seed does not perturb the draw")
	}
}

// The filter's memory is bounded by the schedule's size, not by its
// largest link id: ids it cannot cover stay in the map, and Status
// still finds them there.
func TestScheduleFilterBounded(t *testing.T) {
	s := NewSchedule().FailLink(1<<40, 1)
	if len(s.filter) > s.filterWords() {
		t.Fatalf("filter has %d words, bound %d", len(s.filter), s.filterWords())
	}
	if d, p := s.Status(1<<40, 1); !d || !p {
		t.Fatalf("link 2^40 step 1: down=%v permanent=%v, want permanent", d, p)
	}
	s.FailLinkTransient(-3, 2, 5).FailLink(70, 4)
	if len(s.filter) != 2 {
		t.Fatalf("filter has %d words after link 70, want 2", len(s.filter))
	}
	for _, c := range []struct {
		link, step int
		down, perm bool
	}{
		{1 << 40, 9, true, true}, {1<<40 + 1, 9, false, false},
		{-3, 2, true, false}, {-3, 5, false, false}, {-4, 3, false, false},
		{70, 3, false, false}, {70, 4, true, true}, {69, 4, false, false},
		{0, 4, false, false},
	} {
		if d, p := s.Status(c.link, c.step); d != c.down || p != c.perm {
			t.Errorf("link %d step %d: (%v, %v), want (%v, %v)", c.link, c.step, d, p, c.down, c.perm)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { NewSchedule().FailLink(1<<40, 1) }); allocs > 8 {
		t.Errorf("a one-window schedule at id 2^40 allocates %v times", allocs)
	}

	// A link too far above the filter for the schedule's size stays in
	// the map until a later window pays for enough words; the growth
	// then sets its bit, and the links the filter already held keep
	// theirs.
	g := NewSchedule().FailLink(3, 1)
	far := 64 * (filterMinWords + 2*filterWordsPerWindow)
	g.FailLink(far, 1)
	if len(g.filter) != 1 {
		t.Fatalf("filter has %d words, want 1", len(g.filter))
	}
	g.FailLink(far+64, 1)
	if len(g.filter) != far>>6+2 {
		t.Fatalf("filter has %d words, want %d", len(g.filter), far>>6+2)
	}
	for _, l := range []int{3, far, far + 64} {
		if g.filter[l>>6]&(1<<(uint(l)&63)) == 0 {
			t.Errorf("link %d has no filter bit", l)
		}
		if d, _ := g.Status(l, 1); !d {
			t.Errorf("link %d up under a permanent window", l)
		}
	}

	// The benchmark-sized Bernoulli draws are covered by the filter
	// in full.
	b := Bernoulli(12*4096, 0.02, 7)
	if links := b.Links(); len(b.filter)<<6 <= links[len(links)-1] {
		t.Fatalf("filter of %d words misses link %d", len(b.filter), links[len(links)-1])
	}
}
