package obsv

import (
	"math/rand"
	"reflect"
	"testing"

	"multipath/internal/hypercube"
	"multipath/internal/netsim"
)

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(1, 8)
	b := NewHistogram(1, 8)
	for _, v := range []int{1, 2, 2, 9} { // 9 overflows 8 buckets
		a.Observe(v)
	}
	for _, v := range []int{0, 2, 12} {
		b.Observe(v)
	}
	whole := NewHistogram(1, 8)
	for _, v := range []int{1, 2, 2, 9, 0, 2, 12} {
		whole.Observe(v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, whole) {
		t.Fatalf("merged %+v != whole %+v", a, whole)
	}
	if err := a.Merge(NewHistogram(2, 8)); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

// TestRecorderOpenLoopShardedEqualsSingleShard pins the open-loop
// observation contract: the sharded open-loop engine merges its
// workers' probe events and latency observations into one canonical
// stream, so a single Recorder (probe + MsgLatency sink) fed by
// SimulateOpenLoopSharded must reproduce the single-shard-fed
// Recorder exactly — histograms, counters, and per-link utilization.
func TestRecorderOpenLoopShardedEqualsSingleShard(t *testing.T) {
	q := hypercube.New(4)
	rng := rand.New(rand.NewSource(23))
	tmpls := netsim.PermutationMessages(q, rng.Perm(q.Nodes()), 3)
	tr := &netsim.Trace{}
	for i := range tmpls {
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: (i / 3) * 2, Tmpl: int32(i)})
	}
	opts := RecorderOpts{LinkUtil: true, UtilCap: 32}

	run := func(shards int) (*Recorder, *netsim.OpenLoopResult) {
		rec := NewRecorderOpts(opts)
		ol := netsim.OpenLoopOpts{Mode: netsim.CutThrough, Probe: rec, Sink: rec.MsgLatency}
		var res *netsim.OpenLoopResult
		var err error
		if shards <= 1 {
			res, err = netsim.SimulateOpenLoop(tmpls, tr.Source(), ol)
		} else {
			res, err = netsim.SimulateOpenLoopSharded(tmpls, tr.Source(), ol, shards)
		}
		if err != nil {
			t.Fatal(err)
		}
		return rec, res
	}

	single, want := run(1)
	for _, shards := range []int{2, 3, 8} {
		got, res := run(shards)
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("shards=%d: result %+v != single %+v", shards, res, want)
		}
		if !reflect.DeepEqual(got.MsgLatency, single.MsgLatency) {
			t.Errorf("shards=%d: msg latency %+v != %+v", shards, got.MsgLatency, single.MsgLatency)
		}
		if !reflect.DeepEqual(got.FlitLatency, single.FlitLatency) {
			t.Errorf("shards=%d: flit latency diverges", shards)
		}
		if !reflect.DeepEqual(got.QueueDepth, single.QueueDepth) {
			t.Errorf("shards=%d: queue depth diverges", shards)
		}
		if got.Delivered != single.Delivered || got.Failed != single.Failed ||
			got.Moved != single.Moved || got.Dropped != single.Dropped {
			t.Errorf("shards=%d: counters diverge: %+v vs %+v", shards, got, single)
		}
		if !reflect.DeepEqual(got.LinkUtilization(), single.LinkUtilization()) {
			t.Errorf("shards=%d: link utilization diverges", shards)
		}
	}
}
