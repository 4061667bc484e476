// Package faults provides deterministic, seeded, replayable fault
// schedules for the network simulator — the §1 fault-tolerance story
// made injectable. A schedule answers, for any directed host link and
// simulation step, whether the link is down and whether the outage is
// permanent, so the simulator can distinguish "wait for recovery" from
// "this message is dead".
//
// Three model families cover the experiments:
//
//   - Schedule: an explicit event list — link l fails at step t and
//     optionally recovers at step t' — supporting permanent and
//     transient link and node failures and adversarial bursts that
//     target one guest edge's whole path bundle.
//   - Bernoulli: every directed link independently fails permanently
//     with probability p, sampled once from a seed. The per-link
//     uniform draw is fixed by (seed, link) order, so for one seed the
//     faulty set is monotone non-decreasing in p — the coupling the
//     delivered-fraction monotonicity tests rely on.
//   - PerStep: a transient model where each (link, step) pair is down
//     independently with probability p, computed by a splitmix64-style
//     hash of (seed, link, step). Nothing is stored; replay is exact.
//
// All models are immutable once handed to a simulation and safe for
// concurrent readers.
//
// Cost model. The simulator queries Status about once per flit hop,
// and almost every query is for a link that never fails. A Schedule
// therefore keeps, beside its per-link window map, a bitset with one
// bit per link id that has any outage window: Status answers a link
// without windows with one bit test, and pays a map lookup only for
// links that have a window. The bitset covers ids 0 ≤ id < 64·words,
// where words is bounded by the schedule's size (filterWords), not by
// the largest id; ids outside it (negative, or far above every other
// id) fall through to the map. Horizon is kept up to date as windows
// are added, so it is O(1).
package faults

import (
	"math/rand"
	"sort"

	"multipath/internal/hypercube"
)

// Oracle is the query interface the simulator uses. Implementations
// must be deterministic and safe for concurrent readers.
type Oracle interface {
	// Status reports whether directed link id is down at the given
	// step (steps are 1-based, matching netsim), and — when down —
	// whether the outage is permanent, i.e. the link stays down at
	// every step ≥ step. Permanence is what lets the simulator fail a
	// message immediately instead of waiting forever.
	Status(link, step int) (down, permanent bool)
	// Horizon returns a step h ≥ 0 such that no link changes state
	// after step h (every transient window has closed; what is down
	// stays down). Unbounded models return -1; the simulator then
	// requires an explicit step limit.
	Horizon() int
}

// window is one outage of a single link: down for From ≤ step < Until;
// Until ≤ 0 means the link never recovers.
type window struct {
	From, Until int
}

func (w window) covers(step int) bool {
	return step >= w.From && (w.Until <= 0 || step < w.Until)
}

func (w window) permanentAt(step int) bool {
	return w.Until <= 0 && step >= w.From
}

// Schedule is an explicit, replayable event list. The zero value is an
// empty schedule (no faults); Add* methods build it up. Building is not
// concurrency-safe; querying is.
type Schedule struct {
	byLink map[int][]window
	// filter has bit l set for every link 0 ≤ l < 64·len(filter) with
	// a window in byLink; Status skips the map for every other link in
	// that range.
	filter  []uint64
	windows int // windows in byLink, which bound len(filter)
	horizon int // the largest From or Until of any window
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule { return &Schedule{} }

func (s *Schedule) add(link int, w window) *Schedule {
	if w.Until > 0 && w.Until <= w.From {
		// Empty window: recovers at or before it starts, so the link
		// is never down. Dropping it keeps the static views (EverDown,
		// FaultyLinks, Links) consistent with Status.
		return s
	}
	if s.byLink == nil {
		s.byLink = make(map[int][]window)
	}
	s.byLink[link] = append(s.byLink[link], w)
	s.windows++
	s.horizon = max(s.horizon, w.From, w.Until)
	s.mark(link)
	return s
}

// Filter sizing: the bitset may grow to filterMinWords words (32 KiB,
// every link of Q_14) plus filterWordsPerWindow words per window, so
// its memory is bounded by the schedule's size however large its ids.
const (
	filterMinWords       = 1 << 12
	filterWordsPerWindow = 64
)

// filterWords is the largest filter the schedule's windows allow.
func (s *Schedule) filterWords() int {
	return filterMinWords + filterWordsPerWindow*s.windows
}

// mark sets link's filter bit, first growing the filter to cover link
// when the size bound allows it. A link the filter cannot cover stays
// in the map alone, where Status finds it by lookup.
func (s *Schedule) mark(link int) {
	if link < 0 {
		return
	}
	if w := link >> 6; w >= len(s.filter) {
		if w >= s.filterWords() {
			return
		}
		s.growFilter(min(max(w+1, 2*len(s.filter)), s.filterWords()))
	}
	s.filter[link>>6] |= 1 << (uint(link) & 63)
}

// growFilter widens the filter to words words and sets the bits of
// the links it newly covers.
func (s *Schedule) growFilter(words int) {
	old := len(s.filter) << 6
	grown := make([]uint64, words)
	copy(grown, s.filter)
	s.filter = grown
	for l := range s.byLink {
		if l >= old && l < words<<6 {
			s.filter[l>>6] |= 1 << (uint(l) & 63)
		}
	}
}

// FailLink fails the link permanently from step from (1 to fail from
// the start of the run).
func (s *Schedule) FailLink(link, from int) *Schedule {
	return s.add(link, window{From: from})
}

// FailLinkTransient downs the link for steps from ≤ step < until; it
// recovers at step until.
func (s *Schedule) FailLinkTransient(link, from, until int) *Schedule {
	return s.add(link, window{From: from, Until: until})
}

// FailNode fails every directed link incident to node v — both
// directions of all its dimension edges — permanently from step from:
// a node fault expressed in the link-fault model.
func (s *Schedule) FailNode(q *hypercube.Q, v hypercube.Node, from int) *Schedule {
	for d := 0; d < q.Dims(); d++ {
		s.FailLink(q.EdgeID(v, d), from)
		s.FailLink(q.EdgeID(q.Neighbor(v, d), d), from)
	}
	return s
}

// FailNodeTransient downs every directed link incident to v for steps
// from ≤ step < until.
func (s *Schedule) FailNodeTransient(q *hypercube.Q, v hypercube.Node, from, until int) *Schedule {
	for d := 0; d < q.Dims(); d++ {
		s.FailLinkTransient(q.EdgeID(v, d), from, until)
		s.FailLinkTransient(q.EdgeID(q.Neighbor(v, d), d), from, until)
	}
	return s
}

// Burst downs every given link for steps from ≤ step < until (until ≤ 0
// for permanent) — the adversarial schedule that targets one guest
// edge's whole path bundle at once.
func Burst(links []int, from, until int) *Schedule {
	s := NewSchedule()
	for _, l := range links {
		s.add(l, window{From: from, Until: until})
	}
	return s
}

// Bernoulli fails each directed link of the host independently and
// permanently with probability p, reproducibly from the seed. The draw
// sequence is one Float64 per link in id order, so for a fixed seed the
// faulty set at p1 ≤ p2 is a subset of the set at p2.
func Bernoulli(numLinks int, p float64, seed int64) *Schedule {
	return BernoulliWindow(numLinks, p, seed, 1, 0)
}

// BernoulliWindow is Bernoulli with the outage window made explicit:
// each selected link is down for from ≤ step < until (until ≤ 0 for
// permanent — then it is exactly Bernoulli when from is 1). The draw
// sequence is identical to Bernoulli's — one Float64 per link in id
// order — so for a fixed seed the same links fail regardless of the
// window, and the p-coupling (faulty set monotone in p) carries over.
// A transient window models a correlated outage epoch that heals: the
// degraded-fabric phase of the self-healing experiments.
func BernoulliWindow(numLinks int, p float64, seed int64, from, until int) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := NewSchedule()
	if p > 0 && numLinks > 0 {
		// Size the map for the expected draw, so it rarely regrows.
		s.byLink = make(map[int][]window, int(min(p, 1)*float64(numLinks)))
	}
	for id := 0; id < numLinks; id++ {
		if rng.Float64() < p {
			s.add(id, window{From: from, Until: until})
		}
	}
	return s
}

// Union merges the outage windows of both schedules into a new
// schedule: a link is down whenever either argument says so. Either
// argument may be nil. Composes independent fault processes — e.g. a
// Bernoulli link-death draw plus an adversarial Burst on one path
// bundle.
func Union(a, b *Schedule) *Schedule {
	s := NewSchedule()
	if n := a.FaultyLinks() + b.FaultyLinks(); n > 0 {
		s.byLink = make(map[int][]window, n)
	}
	for _, src := range []*Schedule{a, b} {
		if src == nil {
			continue
		}
		for l, ws := range src.byLink {
			for _, w := range ws {
				s.add(l, w)
			}
		}
	}
	return s
}

// Status implements Oracle: down if any window covers the step,
// permanent if any covering window never closes.
func (s *Schedule) Status(link, step int) (down, permanent bool) {
	if s == nil {
		return false, false
	}
	if uint(link) < uint(len(s.filter))<<6 && s.filter[link>>6]&(1<<(uint(link)&63)) == 0 {
		return false, false
	}
	for _, w := range s.byLink[link] {
		if w.covers(step) {
			down = true
			if w.permanentAt(step) {
				return true, true
			}
		}
	}
	return down, false
}

// Horizon implements Oracle: the last step at which any link changes
// state. All windows start and (for transient ones) end at finite
// steps, so a Schedule is always bounded.
func (s *Schedule) Horizon() int {
	if s == nil {
		return 0
	}
	return s.horizon
}

// Empty reports whether the schedule contains no outages at all.
func (s *Schedule) Empty() bool { return s == nil || len(s.byLink) == 0 }

// FaultyLinks returns the number of distinct links with at least one
// outage window.
func (s *Schedule) FaultyLinks() int {
	if s == nil {
		return 0
	}
	return len(s.byLink)
}

// EverDown reports whether the link has any outage window at all — the
// static view the combinatorial path checks (ida.FaultModel.PathOK)
// use.
func (s *Schedule) EverDown(link int) bool {
	if s == nil {
		return false
	}
	return len(s.byLink[link]) > 0
}

// Links returns the sorted ids of all links with at least one outage.
func (s *Schedule) Links() []int {
	if s == nil {
		return nil
	}
	out := make([]int, 0, len(s.byLink))
	for l := range s.byLink {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// PerStep is the transient Bernoulli model: each (link, step) pair is
// down independently with probability P, derived from Seed by a
// stateless hash, so replay needs no storage and any (link, step) can
// be queried in any order. Outages are never permanent; messages
// crossing a down link simply wait, so simulations under PerStep need
// an explicit step limit (Horizon returns -1).
type PerStep struct {
	P    float64
	Seed int64
}

// Status implements Oracle.
func (m *PerStep) Status(link, step int) (down, permanent bool) {
	if m.P <= 0 {
		return false, false
	}
	return hash01(m.Seed, link, step) < m.P, false
}

// Horizon implements Oracle: per-step sampling never settles.
func (m *PerStep) Horizon() int { return -1 }

// Hash01 maps (seed, a, b) to [0, 1) deterministically — the stateless
// uniform draw behind PerStep, exported for other replayable policies
// that need per-entity randomness without shared rng state (e.g. the
// self-healing session's backoff jitter, keyed by (transfer, attempt)).
func Hash01(seed int64, a, b int) float64 { return hash01(seed, a, b) }

// hash01 maps (seed, link, step) to [0, 1) via two rounds of
// splitmix64 finalization — deterministic across platforms.
func hash01(seed int64, link, step int) float64 {
	x := uint64(seed) ^ uint64(link)*0x9e3779b97f4a7c15 ^ uint64(step)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
