package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"multipath/internal/faults"
	"multipath/internal/hypercube"
)

// shardCounts spans the interesting partition shapes: a two-way split,
// an odd split, more shards than a small run's links (clamping), and
// the benchmarked eight-way split.
var shardCounts = []int{2, 3, 8, 64}

// shardedWorkloads returns deterministic route sets covering the
// regimes the sharded engine must reproduce bit-for-bit: heavy
// permutation contention on a hypercube, sparse hand-built routes with
// shared links, empty routes, and single messages.
func shardedWorkloads() map[string][]*Message {
	q := hypercube.New(5)
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(q.Nodes())
	w := map[string][]*Message{
		"permutation-q5": permMessages(q, perm, 3),
		"chain": {
			{Route: []int{0, 1, 2, 3}, Flits: 5},
			{Route: []int{3, 2, 1, 0}, Flits: 5},
			{Route: []int{1, 2}, Flits: 2},
		},
		"shared-bottleneck": {
			{Route: []int{0, 9, 4}, Flits: 4},
			{Route: []int{1, 9, 5}, Flits: 4},
			{Route: []int{2, 9, 6}, Flits: 4},
			{Route: []int{3, 9, 7}, Flits: 4},
		},
		"empty-and-single": {
			{Route: nil, Flits: 1},
			{Route: []int{42}, Flits: 7},
			{Route: nil, Flits: 3},
		},
	}
	return w
}

// TestSimulateShardedEquivalence: for every workload, mode, and shard
// count, the sharded result must be bit-identical to Simulate's.
func TestSimulateShardedEquivalence(t *testing.T) {
	for name, msgs := range shardedWorkloads() {
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			want, err := Simulate(msgs, mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			for _, shards := range shardCounts {
				got, err := SimulateSharded(msgs, mode, shards)
				if err != nil {
					t.Fatalf("%s/%v/shards=%d: %v", name, mode, shards, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%v/shards=%d: %+v != single-shard %+v",
						name, mode, shards, got, want)
				}
			}
		}
	}
}

// shardedSchedules builds the fault scenarios exercised against every
// workload: a permanent mid-run kill, a transient stall, and a
// mixed schedule over the busiest links.
func shardedSchedules(msgs []*Message) map[string]*faults.Schedule {
	use := map[int]int{}
	for _, m := range msgs {
		for _, id := range m.Route {
			use[id]++
		}
	}
	ids := make([]int, 0, len(use))
	for id := range use {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if use[ids[i]] != use[ids[j]] {
			return use[ids[i]] > use[ids[j]]
		}
		return ids[i] < ids[j]
	})
	out := map[string]*faults.Schedule{"empty": faults.NewSchedule()}
	if len(ids) > 0 {
		out["perm-hot"] = faults.NewSchedule().FailLink(ids[0], 2)
		out["transient-hot"] = faults.NewSchedule().FailLinkTransient(ids[0], 1, 4)
	}
	if len(ids) > 2 {
		out["mixed"] = faults.NewSchedule().
			FailLink(ids[1], 3).
			FailLinkTransient(ids[2], 2, 6).
			FailLink(ids[0], 5)
	}
	return out
}

// TestSimulateFaultsShardedEquivalence: the sharded fault path must
// reproduce SimulateFaults bit-for-bit — Result, Outcomes, TimedOut —
// for permanent, transient, and mixed schedules at every shard count.
func TestSimulateFaultsShardedEquivalence(t *testing.T) {
	for name, msgs := range shardedWorkloads() {
		for schedName, sched := range shardedSchedules(msgs) {
			for _, mode := range []Mode{StoreAndForward, CutThrough} {
				opts := FaultOpts{Faults: sched}
				want, err := SimulateFaults(msgs, mode, opts)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", name, schedName, mode, err)
				}
				for _, shards := range shardCounts {
					got, err := SimulateFaultsSharded(msgs, mode, opts, shards)
					if err != nil {
						t.Fatalf("%s/%s/%v/shards=%d: %v", name, schedName, mode, shards, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s/%v/shards=%d: %+v != single-shard %+v",
							name, schedName, mode, shards, got, want)
					}
				}
			}
		}
	}
}

// TestShardedGracefulTimeoutEquivalence pins the StepLimit timeout
// path: both engines must mark the same messages failed at the same
// step and set TimedOut.
func TestShardedGracefulTimeoutEquivalence(t *testing.T) {
	msgs := shardedWorkloads()["shared-bottleneck"]
	opts := FaultOpts{StepLimit: 3}
	want, err := SimulateFaults(msgs, CutThrough, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !want.TimedOut {
		t.Fatalf("workload finished within %d steps; timeout path not exercised", opts.StepLimit)
	}
	for _, shards := range shardCounts {
		got, err := SimulateFaultsSharded(msgs, CutThrough, opts, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: %+v != %+v", shards, got, want)
		}
	}
}

// probeEvent is one recorded probe callback, keyed for canonical
// ordering: (step, phase, k1, k2) with stable order inside equal keys.
type probeEvent struct {
	step  int
	phase int // 0 moves, 1 kills, 2 deliveries, 3 step end
	k1    int
	k2    int
	kind  string
	qlen  []int
}

// traceProbe records the full event stream for comparison.
type traceProbe struct {
	info   RunInfo
	infoOK bool
	events []probeEvent
}

func (p *traceProbe) BeginRun(info RunInfo) {
	p.infoOK = true
	p.info = info
	p.info.LinkExt = append([]int(nil), info.LinkExt...)
}

func (p *traceProbe) StepEnd(step int, queueLen []int) {
	p.events = append(p.events, probeEvent{
		step: step, phase: 3, kind: "stepEnd",
		qlen: append([]int(nil), queueLen...),
	})
}

func (p *traceProbe) FlitMoved(step int, msg, link int32) {
	p.events = append(p.events, probeEvent{step: step, phase: 0, k1: int(link), k2: int(msg), kind: "move"})
}

func (p *traceProbe) FlitDelivered(step int, msg int32) {
	p.events = append(p.events, probeEvent{step: step, phase: 2, k1: int(msg), kind: "flit"})
}

func (p *traceProbe) FlitsDropped(step int, msg int32, flits int) {
	p.events = append(p.events, probeEvent{step: step, phase: 1, k1: int(msg), k2: flits, kind: "drop"})
}

func (p *traceProbe) MsgDone(step int, msg int32, delivered bool) {
	if delivered {
		p.events = append(p.events, probeEvent{step: step, phase: 2, k1: int(msg), k2: 1, kind: "done+"})
	} else {
		p.events = append(p.events, probeEvent{step: step, phase: 1, k1: int(msg), k2: 1 << 20, kind: "done-"})
	}
}

// canonical sorts the stream into the deterministic per-step order the
// sharded engine emits: within a step, moves by (link, msg), then the
// kill batch in stream order (it is already canonical in both
// engines), then deliveries by (msg, flit<done) pairs, then StepEnd.
func (p *traceProbe) canonical() []probeEvent {
	out := append([]probeEvent(nil), p.events...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.step != b.step {
			return a.step < b.step
		}
		if a.phase != b.phase {
			return a.phase < b.phase
		}
		if a.phase == 1 { // keep kill order as emitted
			return false
		}
		if a.k1 != b.k1 {
			return a.k1 < b.k1
		}
		return a.k2 < b.k2
	})
	return out
}

// TestShardedProbeStreamEquivalence: an attached probe must observe an
// event stream that canonicalizes to the single-shard engine's — same
// multiset of (step, args) per phase, same kill order, same queue
// samples — on both the fault-free and fault paths.
func TestShardedProbeStreamEquivalence(t *testing.T) {
	for name, msgs := range shardedWorkloads() {
		for schedName, sched := range shardedSchedules(msgs) {
			for _, mode := range []Mode{StoreAndForward, CutThrough} {
				ref := &traceProbe{}
				opts := FaultOpts{Faults: sched, Probe: ref}
				want, err := SimulateFaults(msgs, mode, opts)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", name, schedName, mode, err)
				}
				wantEv := ref.canonical()
				for _, shards := range shardCounts {
					got := &traceProbe{}
					opts.Probe = got
					res, err := SimulateFaultsSharded(msgs, mode, opts, shards)
					if err != nil {
						t.Fatalf("%s/%s/%v/shards=%d: %v", name, schedName, mode, shards, err)
					}
					if !reflect.DeepEqual(res, want) {
						t.Fatalf("%s/%s/%v/shards=%d: probed result diverged", name, schedName, mode, shards)
					}
					gotEv := got.canonical()
					if !reflect.DeepEqual(gotEv, wantEv) {
						t.Errorf("%s/%s/%v/shards=%d: probe streams differ\n got %d events\nwant %d events\n%s",
							name, schedName, mode, shards, len(gotEv), len(wantEv),
							firstStreamDiff(gotEv, wantEv))
					}
				}
			}
		}
	}
}

func firstStreamDiff(got, want []probeEvent) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("first diff at %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	return "streams are a prefix of one another"
}

// TestShardedProbedFaultFree covers SimulateShardedProbed (the
// fault-free probed entry point) against SimulateProbed.
func TestShardedProbedFaultFree(t *testing.T) {
	msgs := shardedWorkloads()["permutation-q5"]
	ref := &traceProbe{}
	want, err := SimulateProbed(msgs, CutThrough, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts {
		got := &traceProbe{}
		res, err := SimulateShardedProbed(msgs, CutThrough, shards, got)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("shards=%d: result diverged: %+v != %+v", shards, res, want)
		}
		if !reflect.DeepEqual(got.canonical(), ref.canonical()) {
			t.Errorf("shards=%d: probe streams differ: %s", shards,
				firstStreamDiff(got.canonical(), ref.canonical()))
		}
	}
}

// closedShardedStats runs a closed-loop burst through the sharded step
// loop with the per-shard accounting on.
func closedShardedStats(msgs []*Message, opts OpenLoopOpts, shards int) (*OpenLoopResult, []ShardStat, error) {
	sh := &olSharded{e: newEngine()}
	return sh.run(msgs, nil, opts, closedRun{burst: true}, shards, true)
}

// TestShardedStatsConservation checks the per-shard invariant on the
// fault-free path: every shard's moved flits equal its injected
// flit-hops (everything delivers), the shard link counts partition the
// link space, and the per-shard sums reproduce the global Result.
func TestShardedStatsConservation(t *testing.T) {
	msgs := shardedWorkloads()["permutation-q5"]
	want, err := Simulate(msgs, CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 8} {
		olr, stats, err := closedShardedStats(msgs, OpenLoopOpts{Mode: CutThrough}, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		res := &olr.Result
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("shards=%d: result diverged", shards)
		}
		sumMoved, sumLinks, sumBoundary := 0, 0, 0
		for k, st := range stats {
			if st.FlitsMoved+st.DroppedFlits != st.InjectedHops {
				t.Errorf("shards=%d shard %d: moved %d + dropped %d != injected %d",
					shards, k, st.FlitsMoved, st.DroppedFlits, st.InjectedHops)
			}
			sumMoved += st.FlitsMoved
			sumLinks += st.Links
			sumBoundary += st.BoundaryOut
		}
		if sumMoved != res.FlitsMoved {
			t.Errorf("shards=%d: shard moved sum %d != global %d", shards, sumMoved, res.FlitsMoved)
		}
		if shards > 1 && sumBoundary == 0 {
			t.Errorf("shards=%d: no boundary traffic on a permutation workload", shards)
		}
	}
}

// TestShardedStatsConservationWithFaults checks the generalized
// invariant moved+dropped == injected per shard under a killing
// schedule, via the internal sharded run (the stats themselves are not
// part of the public fault API).
func TestShardedStatsConservationWithFaults(t *testing.T) {
	msgs := shardedWorkloads()["shared-bottleneck"]
	sched := faults.NewSchedule().FailLink(9, 2)
	fr, stats, err := closedShardedStats(msgs, OpenLoopOpts{Mode: CutThrough, Faults: sched}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fr.FailedMsgs == 0 {
		t.Fatal("schedule killed nothing; invariant not exercised")
	}
	sumInj, sumMoved, sumDropped := 0, 0, 0
	for k, st := range stats {
		if st.FlitsMoved+st.DroppedFlits != st.InjectedHops {
			t.Errorf("shard %d: moved %d + dropped %d != injected %d",
				k, st.FlitsMoved, st.DroppedFlits, st.InjectedHops)
		}
		sumInj += st.InjectedHops
		sumMoved += st.FlitsMoved
		sumDropped += st.DroppedFlits
	}
	wantHops := 0
	for _, m := range msgs {
		wantHops += m.Flits * len(m.Route)
	}
	if sumInj != wantHops || sumMoved != fr.FlitsMoved || sumDropped != fr.DroppedFlits {
		t.Errorf("global sums diverge: injected %d/%d moved %d/%d dropped %d/%d",
			sumInj, wantHops, sumMoved, fr.FlitsMoved, sumDropped, fr.DroppedFlits)
	}
}

// TestShardedPoolReuse runs different workloads back to back through
// the pooled sharded engine to catch stale cross-run state (rings,
// worklists, owner tables).
func TestShardedPoolReuse(t *testing.T) {
	wl := shardedWorkloads()
	order := []string{"permutation-q5", "empty-and-single", "shared-bottleneck", "permutation-q5", "chain"}
	for round := 0; round < 2; round++ {
		for _, name := range order {
			msgs := wl[name]
			want, err := Simulate(msgs, StoreAndForward)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SimulateSharded(msgs, StoreAndForward, 3)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s: %+v != %+v", round, name, got, want)
			}
		}
	}
}

// TestShardedErrorPaths pins the error contracts: invalid flits and the
// unbounded-schedule guard.
func TestShardedErrorPaths(t *testing.T) {
	bad := []*Message{{Route: []int{0, 1}, Flits: 0}}
	if _, err := SimulateSharded(bad, CutThrough, 4); err == nil {
		t.Error("zero-flit message accepted")
	}
	msgs := shardedWorkloads()["chain"]
	if _, err := SimulateFaultsSharded(msgs, CutThrough, FaultOpts{Faults: &faults.PerStep{P: 0.5, Seed: 1}}, 4); err == nil {
		t.Error("unbounded schedule without StepLimit accepted")
	}
}

// TestNumberAllNoAllocs pins the shared numbering pass (the serial and
// sharded step loops and simulateWormhole all run through numberAll)
// to zero allocations on a warm engine.
func TestNumberAllNoAllocs(t *testing.T) {
	q := hypercube.New(4)
	rng := rand.New(rand.NewSource(3))
	msgs := permMessages(q, rng.Perm(q.Nodes()), 2)
	e := newEngine()
	if _, err := e.numberAll(msgs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.numberAll(msgs); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("numberAll allocates %v per run on a warm engine", allocs)
	}
}

// Every sharded entry point rejects a negative shard count with the
// same error instead of silently running serially.
func TestNegativeShardCountRejected(t *testing.T) {
	msgs := []*Message{{Route: []int{0, 1}, Flits: 2}}
	src := func() ArrivalSource { return (&Trace{Arrivals: []Arrival{{0, 0}}}).Source() }
	const shards = -3
	for name, run := range map[string]func() error{
		"SimulateSharded": func() error {
			_, err := SimulateSharded(msgs, CutThrough, shards)
			return err
		},
		"SimulateShardedProbed": func() error {
			_, err := SimulateShardedProbed(msgs, CutThrough, shards, &recordingProbe{})
			return err
		},
		"SimulateFaultsSharded": func() error {
			_, err := SimulateFaultsSharded(msgs, CutThrough, FaultOpts{}, shards)
			return err
		},
		"SimulateOpenLoopSharded": func() error {
			_, err := SimulateOpenLoopSharded(msgs, src(), OpenLoopOpts{}, shards)
			return err
		},
		"SimulateOpenLoopShardedStats": func() error {
			_, _, err := SimulateOpenLoopShardedStats(msgs, src(), OpenLoopOpts{}, shards)
			return err
		},
		"SimulateBatch": func() error {
			_, err := SimulateBatch([]BatchJob{{Msgs: msgs, Mode: CutThrough, Shards: shards}})
			return err
		},
	} {
		err := run()
		if err == nil || !strings.HasSuffix(err.Error(), "negative shard count -3") {
			t.Errorf("%s: err = %v, want a negative shard count error", name, err)
		}
	}
}
