package obsv

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"multipath/internal/faults"
	"multipath/internal/hypercube"
	"multipath/internal/netsim"
)

// denseHistogram is the golden model of Histogram: every bucket up to
// the limit is allocated up front.
type denseHistogram struct {
	Width  int
	Counts []uint64
	Over   uint64
	N      uint64
	Sum    int64
	Max    int
}

func newDenseHistogram(width, buckets int) *denseHistogram {
	return &denseHistogram{Width: width, Counts: make([]uint64, buckets)}
}

func (h *denseHistogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	h.N++
	h.Sum += int64(v)
	if v > h.Max {
		h.Max = v
	}
	if b := v / h.Width; b < len(h.Counts) {
		h.Counts[b]++
	} else {
		h.Over++
	}
}

func (h *denseHistogram) Reset() {
	clear(h.Counts)
	h.Over, h.N, h.Sum, h.Max = 0, 0, 0, 0
}

func (h *denseHistogram) Quantile(q float64) int {
	if h.N == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := max(uint64(math.Ceil(q*float64(h.N))), 1)
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			return min((i+1)*h.Width-1, h.Max)
		}
	}
	return h.Max
}

func (h *denseHistogram) Summarize() Summary {
	s := Summary{N: h.N, P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99), Max: h.Max}
	if h.N > 0 {
		s.Mean = float64(h.Sum) / float64(h.N)
	}
	return s
}

func (h *denseHistogram) NonEmptyBuckets() []Bucket {
	var out []Bucket
	for i, c := range h.Counts {
		if c > 0 {
			out = append(out, Bucket{Le: (i+1)*h.Width - 1, Count: c})
		}
	}
	if h.Over > 0 {
		out = append(out, Bucket{Le: h.Max, Count: h.Over})
	}
	return out
}

// denseRecorder is the golden model of Recorder: StepEnd visits every
// link and accumulates every per-link statistic eagerly.
type denseRecorder struct {
	FlitLatency, MsgLatency, QueueDepth *denseHistogram
	BusyFraction                        *Series

	Runs, Steps, Delivered, Failed int
	Moved, Dropped                 uint64

	opts       RecorderOpts
	util       map[int]*Series
	lqSum, lqN []uint64
	lqMax      []int
	ext, moved []int
}

func newDenseRecorder(opts RecorderOpts) *denseRecorder {
	norm := NewRecorderOpts(opts).opts
	r := &denseRecorder{
		FlitLatency:  newDenseHistogram(1, norm.LatencyBuckets),
		MsgLatency:   newDenseHistogram(1, norm.LatencyBuckets),
		QueueDepth:   newDenseHistogram(1, norm.QueueBuckets),
		BusyFraction: NewSeries(norm.UtilCap),
		opts:         norm,
	}
	if norm.LinkUtil {
		r.util = make(map[int]*Series)
	}
	return r
}

func (r *denseRecorder) BeginRun(info netsim.RunInfo) {
	r.Runs++
	r.ext = append(r.ext[:0], info.LinkExt...)
	r.moved = make([]int, info.Links)
}

func (r *denseRecorder) StepEnd(step int, queueLen []int) {
	r.Steps++
	busy := 0
	for l, q := range queueLen {
		r.QueueDepth.Observe(q)
		m := r.moved[l]
		if m > 0 {
			busy++
		}
		if r.util != nil {
			s := r.util[r.ext[l]]
			if s == nil {
				s = NewSeries(r.opts.UtilCap)
				r.util[r.ext[l]] = s
			}
			s.Add(float64(m))
		}
		if r.opts.LinkQueues {
			id := r.ext[l]
			if id >= len(r.lqSum) {
				r.lqSum = append(r.lqSum, make([]uint64, id+1-len(r.lqSum))...)
				r.lqN = append(r.lqN, make([]uint64, id+1-len(r.lqN))...)
				r.lqMax = append(r.lqMax, make([]int, id+1-len(r.lqMax))...)
			}
			r.lqSum[id] += uint64(q)
			r.lqN[id]++
			if q > r.lqMax[id] {
				r.lqMax[id] = q
			}
		}
		r.moved[l] = 0
	}
	if len(queueLen) > 0 {
		r.BusyFraction.Add(float64(busy) / float64(len(queueLen)))
	}
}

func (r *denseRecorder) FlitMoved(step int, msg, link int32) {
	r.Moved++
	r.moved[link]++
}

func (r *denseRecorder) FlitDelivered(step int, msg int32) { r.FlitLatency.Observe(step) }

func (r *denseRecorder) FlitsDropped(step int, msg int32, flits int) {
	r.Dropped += uint64(flits)
}

func (r *denseRecorder) MsgDone(step int, msg int32, delivered bool) {
	if delivered {
		r.Delivered++
		r.MsgLatency.Observe(step)
	} else {
		r.Failed++
	}
}

func (r *denseRecorder) Reset() {
	r.FlitLatency.Reset()
	r.MsgLatency.Reset()
	r.QueueDepth.Reset()
	r.BusyFraction.Reset()
	r.Runs, r.Steps, r.Delivered, r.Failed = 0, 0, 0, 0
	r.Moved, r.Dropped = 0, 0
	clear(r.util)
	clear(r.lqSum)
	clear(r.lqN)
	clear(r.lqMax)
}

func (r *denseRecorder) LinkUtilization() map[int][]float64 {
	if r.util == nil {
		return nil
	}
	out := make(map[int][]float64, len(r.util))
	for id, s := range r.util {
		out[id] = s.Samples()
	}
	return out
}

func (r *denseRecorder) LinkQueueDepth(link int) (LinkQueueStat, bool) {
	if link < 0 || link >= len(r.lqN) || r.lqN[link] == 0 {
		return LinkQueueStat{}, false
	}
	return LinkQueueStat{Sum: r.lqSum[link], N: r.lqN[link], Max: r.lqMax[link]}, true
}

func (r *denseRecorder) EachLinkQueueDepth(fn func(link int, s LinkQueueStat)) {
	for id, n := range r.lqN {
		if n > 0 {
			fn(id, LinkQueueStat{Sum: r.lqSum[id], N: n, Max: r.lqMax[id]})
		}
	}
}

// recPair feeds one event stream to a Recorder and its dense golden
// model, and checks that every reported value agrees.
type recPair struct {
	rec *Recorder
	ref *denseRecorder
}

func newRecPair(opts RecorderOpts) recPair {
	return recPair{NewRecorderOpts(opts), newDenseRecorder(opts)}
}

func (p recPair) probe() netsim.Probe { return Multi(p.rec, p.ref) }

// sinkPair fans a latency sink out to both message-latency histograms.
type sinkPair struct {
	a *Histogram
	b *denseHistogram
}

func (s sinkPair) Observe(v int) { s.a.Observe(v); s.b.Observe(v) }

func (p recPair) sink() netsim.LatencySink { return sinkPair{p.rec.MsgLatency, p.ref.MsgLatency} }

type linkStat struct {
	id int
	s  LinkQueueStat
}

// check compares the pair and returns how many observed links never
// had a non-empty queue (their N rests entirely on the lazy count).
func (p recPair) check(t *testing.T, label string) (idle int) {
	t.Helper()
	for _, h := range []struct {
		name string
		got  *Histogram
		want *denseHistogram
	}{
		{"flit latency", p.rec.FlitLatency, p.ref.FlitLatency},
		{"msg latency", p.rec.MsgLatency, p.ref.MsgLatency},
		{"queue depth", p.rec.QueueDepth, p.ref.QueueDepth},
	} {
		g, w := h.got, h.want
		if g.N != w.N || g.Sum != w.Sum || g.Max != w.Max || g.Over != w.Over {
			t.Errorf("%s: %s N/Sum/Max/Over %d/%d/%d/%d, dense %d/%d/%d/%d",
				label, h.name, g.N, g.Sum, g.Max, g.Over, w.N, w.Sum, w.Max, w.Over)
		}
		if gs, ws := g.Summarize(), w.Summarize(); gs != ws {
			t.Errorf("%s: %s summary %+v, dense %+v", label, h.name, gs, ws)
		}
		if gb, wb := g.NonEmptyBuckets(), w.NonEmptyBuckets(); !reflect.DeepEqual(gb, wb) {
			t.Errorf("%s: %s buckets %v, dense %v", label, h.name, gb, wb)
		}
		top := len(w.Counts)
		for top > 0 && w.Counts[top-1] == 0 {
			top--
		}
		if !slices.Equal(g.Counts, w.Counts[:top]) {
			t.Errorf("%s: %s counts %v, dense %v", label, h.name, g.Counts, w.Counts[:top])
		}
	}
	if g, w := p.rec.BusyFraction, p.ref.BusyFraction; g.Len() != w.Len() || g.Stride() != w.Stride() ||
		!reflect.DeepEqual(g.Samples(), w.Samples()) {
		t.Errorf("%s: busy fraction %v %v, dense %v %v", label, g, g.Samples(), w, w.Samples())
	}
	if g, w := p.rec.LinkUtilization(), p.ref.LinkUtilization(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: link utilization diverges (%d vs %d links)", label, len(g), len(w))
	}
	if p.rec.Runs != p.ref.Runs || p.rec.Steps != p.ref.Steps || p.rec.Delivered != p.ref.Delivered ||
		p.rec.Failed != p.ref.Failed || p.rec.Moved != p.ref.Moved || p.rec.Dropped != p.ref.Dropped {
		t.Errorf("%s: counters diverge", label)
	}
	var got, want []linkStat
	p.rec.EachLinkQueueDepth(func(id int, s LinkQueueStat) { got = append(got, linkStat{id, s}) })
	p.ref.EachLinkQueueDepth(func(id int, s LinkQueueStat) { want = append(want, linkStat{id, s}) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: per-link queue stats diverge:\n got %v\nwant %v", label, got, want)
	}
	for id := -1; id <= len(p.ref.lqN)+1; id++ {
		gs, gok := p.rec.LinkQueueDepth(id)
		ws, wok := p.ref.LinkQueueDepth(id)
		if gs != ws || gok != wok {
			t.Errorf("%s: LinkQueueDepth(%d) = %+v %t, dense %+v %t", label, id, gs, gok, ws, wok)
		}
	}
	for _, s := range want {
		if s.s.Max == 0 {
			idle++
		}
	}
	return idle
}

// hotTraffic builds a contended open-loop input on Q_n: e-cube
// templates between random node pairs, a third of them aimed at one
// hot node, arriving a few per step so queues build up and drain.
func hotTraffic(n int, seed int64, msgs, flits int) ([]*netsim.Message, *netsim.Trace) {
	q := hypercube.New(n)
	rng := rand.New(rand.NewSource(seed))
	var tmpls []*netsim.Message
	tr := &netsim.Trace{}
	for i := 0; i < msgs; i++ {
		src := hypercube.Node(rng.Intn(q.Nodes()))
		dst := hypercube.Node(rng.Intn(q.Nodes()))
		if rng.Intn(3) == 0 {
			dst = 0
		}
		if src == dst {
			dst ^= 1
		}
		tmpls = append(tmpls, &netsim.Message{Route: ecubeRoute(q, src, dst), Flits: flits})
		if i%8 != 7 { // templates that never arrive add links that never queue
			tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: i / 4, Tmpl: int32(i)})
		}
	}
	return tmpls, tr
}

// TestRecorderSparseMatchesDense is the golden-model test of the
// sparse Recorder and the grow-on-demand Histogram: fed the same engine
// streams as the dense reference above, every reported value agrees —
// clean, faulty and wormhole runs, one Recorder across
// runs over different link sets with Reset and per-link queries in
// between, per-link utilization on, and bucket limits small enough to
// overflow.
func TestRecorderSparseMatchesDense(t *testing.T) {
	full := RecorderOpts{LinkQueues: true, LinkUtil: true, UtilCap: 16}
	tiny := RecorderOpts{LinkQueues: true, QueueBuckets: 2, LatencyBuckets: 8}
	tmpls, tr := hotTraffic(5, 1, 240, 3)

	openLoop := func(p recPair, opts netsim.OpenLoopOpts) *netsim.OpenLoopResult {
		t.Helper()
		opts.Mode, opts.Probe, opts.Sink = netsim.CutThrough, p.probe(), p.sink()
		res, err := netsim.SimulateOpenLoop(tmpls, tr.Source(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, opts := range []RecorderOpts{full, tiny} {
		label := fmt.Sprintf("%+v", opts)
		p := newRecPair(opts)
		openLoop(p, netsim.OpenLoopOpts{})
		if idle := p.check(t, label); idle == 0 {
			t.Errorf("%s: no observed link with an always-empty queue; the lazy N goes unchecked", label)
		}

		pf := newRecPair(opts)
		res := openLoop(pf, netsim.OpenLoopOpts{Faults: faults.Bernoulli(hypercube.New(5).DirectedEdges(), 0.05, 7)})
		if res.FailedMsgs == 0 {
			t.Fatalf("%s: faults did not bite", label)
		}
		pf.check(t, label+"/faulty")
	}

	p := newRecPair(tiny)
	openLoop(p, netsim.OpenLoopOpts{})
	if p.rec.QueueDepth.Over == 0 || p.rec.FlitLatency.Over == 0 || p.rec.MsgLatency.Over == 0 {
		t.Errorf("tiny bucket limits did not overflow: queue %d flit %d msg %d",
			p.rec.QueueDepth.Over, p.rec.FlitLatency.Over, p.rec.MsgLatency.Over)
	}

	pw := newRecPair(full)
	if _, err := netsim.SimulateWormholeProbed(tmpls[:64], pw.probe()); err != nil {
		t.Fatal(err)
	}
	pw.check(t, "wormhole")

	// One Recorder across runs over different link sets, queried
	// between runs and Reset between some of them as routing.Run does.
	for _, opts := range []RecorderOpts{full, tiny} {
		p := newRecPair(opts)
		small, smallTr := hotTraffic(3, 2, 40, 2)
		runs := []struct {
			tmpls []*netsim.Message
			tr    *netsim.Trace
			reset bool
		}{
			{tmpls, tr, false},
			{small, smallTr, false},
			{tmpls[:30], tr, true},
			{tmpls, tr, false},
			{small, smallTr, true},
		}
		for i, run := range runs {
			if run.reset {
				p.rec.Reset()
				p.ref.Reset()
				p.check(t, fmt.Sprintf("%+v/reset before run %d", opts, i))
			}
			src := &netsim.Trace{}
			for _, a := range run.tr.Arrivals {
				if int(a.Tmpl) < len(run.tmpls) {
					src.Arrivals = append(src.Arrivals, a)
				}
			}
			if _, err := netsim.SimulateOpenLoop(run.tmpls, src.Source(), netsim.OpenLoopOpts{
				Mode: netsim.StoreAndForward, Probe: p.probe(), Sink: p.sink(),
			}); err != nil {
				t.Fatal(err)
			}
			p.check(t, fmt.Sprintf("%+v/after run %d", opts, i))
		}
	}
}

// The per-link queue stats stay exact when read in the middle of a run
// and when a run ends without a step.
func TestRecorderLinkQueueDepthMidRun(t *testing.T) {
	p := newRecPair(RecorderOpts{LinkQueues: true})
	rec := p.probe()
	rec.BeginRun(netsim.RunInfo{Links: 3, LinkExt: []int{7, 2, 5}})
	rec.StepEnd(0, []int{0, 2, 0})
	p.check(t, "after step 0")
	rec.FlitMoved(1, 0, 1)
	rec.StepEnd(1, []int{1, 0, 0})
	rec.StepEnd(2, []int{0, 0, 0})
	p.check(t, "after step 2")
	rec.BeginRun(netsim.RunInfo{Links: 2, LinkExt: []int{9, 2}})
	p.check(t, "second run, no step")
	rec.StepEnd(0, []int{0, 4})
	rec.BeginRun(netsim.RunInfo{Links: 1, LinkExt: []int{1}})
	if s, _ := p.rec.LinkQueueDepth(2); s != (LinkQueueStat{Sum: 6, N: 4, Max: 4}) {
		t.Errorf("link 2: %+v, want Sum 6 N 4 Max 4", s)
	}
	if s, _ := p.rec.LinkQueueDepth(5); s != (LinkQueueStat{N: 3}) {
		t.Errorf("link 5 (never queued): %+v, want N 3", s)
	}
	p.check(t, "third run, no step")
}

// TestHistogramGrowsOnDemand pins the Counts contract: its length is
// the highest observed in-range bucket + 1, a reset histogram equals a
// fresh one fed the same values, and a merge keeps the larger limit.
func TestHistogramGrowsOnDemand(t *testing.T) {
	h := NewHistogram(2, 8)
	if len(h.Counts) != 0 {
		t.Fatalf("fresh histogram holds %d buckets", len(h.Counts))
	}
	for _, c := range []struct{ v, wantLen int }{{3, 2}, {0, 2}, {9, 5}, {15, 8}, {16, 8}, {1000, 8}} {
		h.Observe(c.v)
		if len(h.Counts) != c.wantLen {
			t.Fatalf("after %d: len(Counts) %d, want %d", c.v, len(h.Counts), c.wantLen)
		}
	}
	if h.Over != 2 || h.N != 6 {
		t.Fatalf("Over %d N %d, want 2 and 6", h.Over, h.N)
	}

	h.Reset()
	fresh := NewHistogram(2, 8)
	for _, v := range []int{1, 4, 4} {
		h.Observe(v)
		fresh.Observe(v)
	}
	if !reflect.DeepEqual(h, fresh) {
		t.Fatalf("reset histogram %+v, fresh %+v", h, fresh)
	}

	a, b := NewHistogram(1, 4), NewHistogram(1, 16)
	a.Observe(6) // overflows a's limit and stays overflow after the merge
	b.Observe(10)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	a.Observe(12) // in range under the merged limit
	want := NewHistogram(1, 16)
	for _, v := range []int{10, 12} {
		want.Observe(v)
	}
	want.N, want.Sum, want.Max, want.Over = 3, 28, 12, 1
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("merged %+v, want %+v", a, want)
	}
}
