package obsv

import (
	"math/rand"
	"reflect"
	"testing"

	"multipath/internal/hypercube"
	"multipath/internal/netsim"
)

// TestRecorderReset: a reset Recorder attached to the same run must
// reproduce a fresh Recorder's state exactly — including the private
// collectors — and resetting must not allocate.
func TestRecorderReset(t *testing.T) {
	q := hypercube.New(4)
	rng := rand.New(rand.NewSource(3))
	msgs := permMessages(q, rng.Perm(q.Nodes()), 4)

	for _, opts := range []RecorderOpts{{}, {LinkUtil: true, UtilCap: 32}} {
		used := NewRecorderOpts(opts)
		if _, err := netsim.SimulateProbed(msgs, netsim.CutThrough, used); err != nil {
			t.Fatal(err)
		}
		used.Reset()
		fresh := NewRecorderOpts(opts)
		if _, err := netsim.SimulateProbed(msgs, netsim.CutThrough, fresh); err != nil {
			t.Fatal(err)
		}
		if _, err := netsim.SimulateProbed(msgs, netsim.CutThrough, used); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(used.FlitLatency, fresh.FlitLatency) ||
			!reflect.DeepEqual(used.MsgLatency, fresh.MsgLatency) ||
			!reflect.DeepEqual(used.QueueDepth, fresh.QueueDepth) {
			t.Fatalf("%+v: reset recorder's histograms diverge from fresh", opts)
		}
		if !reflect.DeepEqual(used.BusyFraction.Samples(), fresh.BusyFraction.Samples()) {
			t.Fatalf("%+v: busy-fraction series diverges after reset", opts)
		}
		if !reflect.DeepEqual(used.LinkUtilization(), fresh.LinkUtilization()) {
			t.Fatalf("%+v: link utilization diverges after reset", opts)
		}
		if used.Runs != fresh.Runs || used.Steps != fresh.Steps ||
			used.Delivered != fresh.Delivered || used.Failed != fresh.Failed ||
			used.Moved != fresh.Moved || used.Dropped != fresh.Dropped {
			t.Fatalf("%+v: aggregates diverge after reset", opts)
		}
	}
}

// TestResetAllocs pins the point of Reset: clearing for the next load
// point allocates nothing (the buckets and buffers are kept).
func TestResetAllocs(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 3000; i++ {
		r.MsgLatency.Observe(i % 5000)
		r.FlitLatency.Observe(i % 100)
		r.QueueDepth.Observe(i % 300)
		r.BusyFraction.Add(float64(i%7) / 7)
	}
	if allocs := testing.AllocsPerRun(10, r.Reset); allocs != 0 {
		t.Fatalf("Reset allocated %.0f times, want 0", allocs)
	}
	h := NewHistogram(1, 64)
	h.Observe(3)
	if allocs := testing.AllocsPerRun(10, h.Reset); allocs != 0 {
		t.Fatalf("Histogram.Reset allocated %.0f times, want 0", allocs)
	}
	s := NewSeries(64)
	for i := 0; i < 500; i++ {
		s.Add(float64(i))
	}
	if allocs := testing.AllocsPerRun(10, s.Reset); allocs != 0 {
		t.Fatalf("Series.Reset allocated %.0f times, want 0", allocs)
	}
}

// TestSeriesResetBehavesFresh: after Reset a Series downsamples exactly
// like a new one.
func TestSeriesResetBehavesFresh(t *testing.T) {
	a := NewSeries(8)
	for i := 0; i < 1000; i++ {
		a.Add(float64(i % 13))
	}
	a.Reset()
	b := NewSeries(8)
	for i := 0; i < 100; i++ {
		a.Add(float64(i))
		b.Add(float64(i))
	}
	if a.Stride() != b.Stride() || a.Len() != b.Len() || !reflect.DeepEqual(a.Samples(), b.Samples()) {
		t.Fatalf("reset series %v diverges from fresh %v", a, b)
	}
}
