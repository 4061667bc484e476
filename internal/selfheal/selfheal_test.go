package selfheal

import (
	"reflect"
	"slices"
	"testing"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/faults"
	"multipath/internal/netsim"
)

// sliceSink collects latency observations for multiset comparison.
type sliceSink struct{ vals []int }

func (s *sliceSink) Observe(v int) { s.vals = append(s.vals, v) }

// transferRec is one PerTransfer record.
type transferRec struct {
	arrival, done int
	delivered     bool
	retries       int
}

func recordTransfers(m map[int32]transferRec) func(int32, int, int, bool, int) {
	return func(t int32, arrival, done int, delivered bool, retries int) {
		m[t] = transferRec{arrival, done, delivered, retries}
	}
}

func theorem1(t *testing.T, n int) *core.Embedding {
	t.Helper()
	e, err := cycles.Theorem1(n)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sweepTrace spreads count arrivals round-robin over nb bundles, one
// batch of `rate` per step.
func sweepTrace(count, nb, rate int) *netsim.Trace {
	tr := &netsim.Trace{}
	for i := 0; i < count; i++ {
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: i / rate, Tmpl: int32(i % nb)})
	}
	return tr
}

func TestSelfHealCleanFabric(t *testing.T) {
	e := theorem1(t, 4)
	sink := &sliceSink{}
	rep, err := Send(e, nil, sweepTrace(32, len(e.Paths), 4), Config{
		Mode:  netsim.StoreAndForward,
		Flits: 4,
		Sink:  sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transfers != 32 || rep.Delivered != 32 || rep.DeliveredFraction != 1 {
		t.Fatalf("clean fabric lost traffic: %+v", rep)
	}
	if rep.Retries != 0 || rep.Reroutes != 0 || rep.Abandoned != 0 || rep.DeadLinks != 0 || rep.DeadlineMisses != 0 {
		t.Fatalf("clean fabric reported healing work: %+v", rep)
	}
	if len(sink.vals) != 32 {
		t.Fatalf("sink saw %d latencies, want 32", len(sink.vals))
	}
	if rep.Engine.Injected != 32 {
		t.Fatalf("reroute strategy injected %d pieces for 32 transfers", rep.Engine.Injected)
	}
}

// TestSelfHealRerouteRecovers kills the first path of edge 0 under a
// live transfer: the piece dies and the session reroutes it onto the
// sibling path after the backoff delay. The transfer right behind it
// is already prefetched (the engine pulls one arrival ahead) so it
// still starts on the doomed path and heals the same way; a *third*
// transfer, emitted after the failure was observed, steers around the
// dead path from the start with zero retries.
func TestSelfHealRerouteRecovers(t *testing.T) {
	e := theorem1(t, 4)
	// Edge 0's bundle: path 0 = [2], path 1 = [0 6 20], path 2 = [1 10 25].
	sched := faults.NewSchedule().FailLink(2, 1)
	tr := &netsim.Trace{Arrivals: []netsim.Arrival{
		{Step: 0, Tmpl: 0},
		{Step: 10, Tmpl: 0},
		{Step: 20, Tmpl: 0},
	}}
	sink := &sliceSink{}
	repaired := &sliceSink{}
	perT := map[int32]transferRec{}
	rep, err := Send(e, []int{0}, tr, Config{
		Mode:         netsim.StoreAndForward,
		Flits:        2,
		MaxRetries:   2,
		Backoff:      FixedBackoff{Steps: 2},
		Faults:       sched,
		Sink:         sink,
		RepairedSink: repaired,
		PerTransfer:  recordTransfers(perT),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transfers != 3 || rep.Delivered != 3 {
		t.Fatalf("want all transfers delivered: %+v", rep)
	}
	if rep.Retries != 2 || rep.Reroutes != 2 {
		t.Fatalf("want two reroutes (first transfer and the prefetched one): %+v", rep)
	}
	if rep.DeadLinks != 1 || rep.Abandoned != 0 {
		t.Fatalf("want one dead link, no abandons: %+v", rep)
	}
	if rep.Engine.Injected != 5 || rep.Engine.FailedMsgs != 2 {
		t.Fatalf("engine pieces: %+v", rep.Engine)
	}
	// Transfers 0 and 1 needed a retry; transfer 2 learned from them.
	if r := perT[0]; !r.delivered || r.retries != 1 {
		t.Fatalf("transfer 0 record %+v, want delivered after 1 retry", r)
	}
	if r := perT[1]; !r.delivered || r.retries != 1 {
		t.Fatalf("transfer 1 record %+v, want delivered after 1 retry (prefetched before the kill)", r)
	}
	if r := perT[2]; !r.delivered || r.retries != 0 {
		t.Fatalf("transfer 2 record %+v, want delivered with 0 retries (dead path avoided)", r)
	}
	if len(sink.vals) != 3 || len(repaired.vals) != 2 {
		t.Fatalf("sinks: all %v repaired %v", sink.vals, repaired.vals)
	}
	// Post-repair latency includes failure detection plus backoff, so
	// it strictly exceeds the steered transfer's clean 3-hop latency.
	steered := perT[2].done - perT[2].arrival
	for _, v := range repaired.vals {
		if v <= steered {
			t.Fatalf("repaired latency %d should exceed the steered transfer's %d", v, steered)
		}
	}
}

// TestSelfHealNoSurvivingPath kills every path of the bundle: the
// transfer cycles through the siblings it can blame and is abandoned
// once no path survives, bounded by MaxRetries.
func TestSelfHealNoSurvivingPath(t *testing.T) {
	e := theorem1(t, 4)
	sched := faults.NewSchedule().FailLink(2, 1).FailLink(0, 1).FailLink(1, 1)
	tr := &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 0}}}
	rep, err := Send(e, []int{0}, tr, Config{
		Mode:       netsim.StoreAndForward,
		Flits:      2,
		MaxRetries: 5,
		Faults:     sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 0 || rep.Abandoned != 1 {
		t.Fatalf("want the transfer abandoned: %+v", rep)
	}
	if rep.Retries > 2 {
		t.Fatalf("cycled more than the surviving siblings: %+v", rep)
	}
	if rep.DeadLinks == 0 {
		t.Fatalf("no dead links learned: %+v", rep)
	}
}

// TestSelfHealDeadline pins the deadline policy: a backoff that can
// only land past the deadline abandons instead of injecting, and the
// miss is counted; a permissive deadline delivers.
func TestSelfHealDeadline(t *testing.T) {
	e := theorem1(t, 4)
	sched := faults.NewSchedule().FailLink(2, 1)
	tr := &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 0}}}
	base := Config{
		Mode:       netsim.StoreAndForward,
		Flits:      2,
		MaxRetries: 3,
		Faults:     sched,
	}

	tight := base
	tight.Backoff = FixedBackoff{Steps: 30}
	tight.Deadline = 10
	rep, err := Send(e, []int{0}, tr, tight)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 0 || rep.Abandoned != 1 || rep.DeadlineMisses != 1 || rep.Retries != 0 {
		t.Fatalf("tight deadline: %+v", rep)
	}
	if rep.DeadlineMissFraction != 1 {
		t.Fatalf("tight deadline miss fraction %v", rep.DeadlineMissFraction)
	}

	loose := base
	loose.Backoff = FixedBackoff{Steps: 30}
	loose.Deadline = 100
	rep, err = Send(e, []int{0}, tr, loose)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 1 || rep.DeadlineMisses != 0 || rep.Retries != 1 {
		t.Fatalf("loose deadline: %+v", rep)
	}
}

// TestSelfHealExpBackoffReplayable pins ExpBackoff determinism: the
// jitter is a stateless hash, so identical runs produce identical
// reports, and a different seed may produce different retry timing but
// the same delivery outcome on this fabric.
func TestSelfHealExpBackoffReplayable(t *testing.T) {
	e := theorem1(t, 4)
	sched := faults.Union(
		faults.Bernoulli(e.Host.DirectedEdges(), 0.06, 11),
		faults.NewSchedule().FailLink(2, 1),
	)
	cfg := Config{
		Mode:       netsim.StoreAndForward,
		Flits:      3,
		MaxRetries: 4,
		Backoff:    ExpBackoff{Base: 1, Cap: 16, Jitter: 0.5, Seed: 42},
		Faults:     sched,
		StepLimit:  4000,
	}
	trace := sweepTrace(48, len(e.Paths), 2)
	first, err := Send(e, nil, trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Send(e, nil, trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("ExpBackoff run not replayable:\n%+v\n%+v", first, again)
	}
	if first.Retries == 0 {
		t.Fatalf("fault mix produced no retries: %+v", first)
	}
	// Delay itself: pure function of (attempt, id).
	b := ExpBackoff{Base: 2, Cap: 32, Jitter: 0.3, Seed: 7}
	for attempt := 1; attempt <= 8; attempt++ {
		d1, d2 := b.Delay(attempt, 5), b.Delay(attempt, 5)
		if d1 != d2 {
			t.Fatalf("Delay(%d, 5) nondeterministic: %d vs %d", attempt, d1, d2)
		}
		if d1 < 1 {
			t.Fatalf("Delay(%d, 5) = %d < 1", attempt, d1)
		}
	}
}

// TestSelfHealIDA pins the zero-retry alternative: with K = 2 of
// width 3, one dead path costs nothing; two dead paths sink the
// transfer without any retry traffic.
func TestSelfHealIDA(t *testing.T) {
	e := theorem1(t, 4)
	tr := &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 0}}}
	base := Config{
		Mode:     netsim.StoreAndForward,
		Flits:    4,
		Strategy: IDA,
		K:        2,
	}

	one := base
	one.Faults = faults.NewSchedule().FailLink(2, 1)
	rep, err := Send(e, []int{0}, tr, one)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 1 || rep.Retries != 0 || rep.Abandoned != 0 {
		t.Fatalf("IDA with one dead path: %+v", rep)
	}
	if rep.Engine.Injected != 3 || rep.Engine.FailedMsgs != 1 {
		t.Fatalf("IDA pieces: %+v", rep.Engine)
	}

	two := base
	two.Faults = faults.NewSchedule().FailLink(2, 1).FailLink(0, 1)
	rep, err = Send(e, []int{0}, tr, two)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 0 || rep.Retries != 0 || rep.Abandoned != 1 {
		t.Fatalf("IDA with two dead paths: %+v", rep)
	}
}

// TestSelfHealReplay is the determinism claim at the session level: a
// replay of the same (trace, config) pair gives the same Report,
// PerTransfer records and latency multiset, for both strategies, under
// a coupled-Bernoulli fault draw.
func TestSelfHealReplay(t *testing.T) {
	e := theorem1(t, 4)
	sched := faults.Bernoulli(e.Host.DirectedEdges(), 0.08, 3)
	trace := sweepTrace(64, len(e.Paths), 4)
	for _, strat := range []Strategy{Reroute, IDA} {
		var baseRep *Report
		var basePerT map[int32]transferRec
		var baseSink []int
		for rep := range 2 {
			perT := map[int32]transferRec{}
			sink := &sliceSink{}
			got, err := Send(e, nil, trace, Config{
				Mode:        netsim.StoreAndForward,
				Flits:       3,
				Strategy:    strat,
				K:           2,
				MaxRetries:  3,
				Backoff:     ExpBackoff{Base: 1, Jitter: 0.4, Seed: 9},
				Faults:      sched,
				StepLimit:   4000,
				Sink:        sink,
				PerTransfer: recordTransfers(perT),
			})
			if err != nil {
				t.Fatalf("%v/rep=%d: %v", strat, rep, err)
			}
			slices.Sort(sink.vals)
			if baseRep == nil {
				baseRep, basePerT, baseSink = got, perT, sink.vals
				continue
			}
			if !reflect.DeepEqual(got, baseRep) {
				t.Fatalf("%v: replayed report diverged:\n%+v\nvs\n%+v", strat, *got, *baseRep)
			}
			if !reflect.DeepEqual(perT, basePerT) {
				t.Fatalf("%v: replayed per-transfer records diverged", strat)
			}
			if !reflect.DeepEqual(sink.vals, baseSink) {
				t.Fatalf("%v: replayed latency multiset diverged", strat)
			}
		}
		if baseRep.Transfers != 64 {
			t.Fatalf("%v: %d transfers, want 64", strat, baseRep.Transfers)
		}
	}
}

// TestSelfHealConservation generalizes the conservation invariant over
// the healed run: every injected piece is delivered or failed, flits
// are conserved, and the injected total decomposes into base pieces
// plus retries (moved + dropped + rerouted accounting).
func TestSelfHealConservation(t *testing.T) {
	e := theorem1(t, 4)
	sched := faults.Bernoulli(e.Host.DirectedEdges(), 0.3, 17)
	perT := map[int32]transferRec{}
	rep, err := Send(e, nil, sweepTrace(96, len(e.Paths), 3), Config{
		Mode:        netsim.StoreAndForward,
		Flits:       2,
		MaxRetries:  4,
		Backoff:     FixedBackoff{Steps: 1},
		Faults:      sched,
		StepLimit:   8000,
		PerTransfer: recordTransfers(perT),
	})
	if err != nil {
		t.Fatal(err)
	}
	en := &rep.Engine
	if en.TimedOut {
		t.Fatalf("run timed out; the decomposition below assumes a drained run: %+v", en)
	}
	if en.FlitsMoved+en.DroppedFlits != en.InjectedHops {
		t.Fatalf("flit conservation: moved %d + dropped %d != injected hops %d",
			en.FlitsMoved, en.DroppedFlits, en.InjectedHops)
	}
	if en.DeliveredMsgs+en.FailedMsgs != en.Injected {
		t.Fatalf("piece conservation: delivered %d + failed %d != injected %d",
			en.DeliveredMsgs, en.FailedMsgs, en.Injected)
	}
	// Reroute strategy: one base piece per transfer, so injected ==
	// transfers + retries (the run drained, so every emission entered).
	if en.Injected != rep.Transfers+rep.Retries {
		t.Fatalf("injected %d != transfers %d + retries %d", en.Injected, rep.Transfers, rep.Retries)
	}
	// Path cycling never reuses a path containing the blamed link, so
	// every retry here is a reroute.
	if rep.Retries != rep.Reroutes {
		t.Fatalf("retries %d != reroutes %d", rep.Retries, rep.Reroutes)
	}
	if rep.Retries < 5 || rep.Abandoned == 0 {
		t.Fatalf("fault mix too tame to exercise healing: %+v", rep)
	}
	sum := 0
	for _, r := range perT {
		sum += r.retries
	}
	if sum != rep.Retries {
		t.Fatalf("per-transfer retries sum %d != report retries %d", sum, rep.Retries)
	}
	if len(perT) != rep.Transfers {
		t.Fatalf("PerTransfer fired %d times for %d transfers", len(perT), rep.Transfers)
	}
}

// TestSelfHealTimeout pins StepLimit semantics: in-flight transfers at
// the limit are reported undelivered (done=-1), never retried (the run
// is over), and count as deadline misses when a deadline is set.
func TestSelfHealTimeout(t *testing.T) {
	e := theorem1(t, 4)
	perT := map[int32]transferRec{}
	rep, err := Send(e, []int{0}, &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 0}}}, Config{
		Mode:        netsim.StoreAndForward,
		Flits:       8,
		Deadline:    50,
		StepLimit:   2,
		PerTransfer: recordTransfers(perT),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Engine.TimedOut {
		t.Fatalf("run should have timed out: %+v", rep.Engine)
	}
	if rep.Delivered != 0 || rep.Retries != 0 || rep.Abandoned != 0 || rep.DeadlineMisses != 1 {
		t.Fatalf("timeout accounting: %+v", rep)
	}
	if r := perT[0]; r.delivered || r.done != -1 {
		t.Fatalf("timed-out transfer record %+v", r)
	}
}

// TestSelfHealValidation covers the argument errors.
func TestSelfHealValidation(t *testing.T) {
	e := theorem1(t, 4)
	if _, err := Send(e, nil, &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 99}}}, Config{}); err == nil {
		t.Fatal("out-of-range bundle accepted")
	}
	if _, err := Send(e, nil, &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 5, Tmpl: 0}, {Step: 1, Tmpl: 0}}}, Config{}); err == nil {
		t.Fatal("decreasing steps accepted")
	}
	if _, err := Send(e, []int{-1}, &netsim.Trace{}, Config{}); err == nil {
		t.Fatal("negative edge index accepted")
	}
}

// TestExpBackoffJitterRespectsCap pins the Cap-is-final-delay fix: an
// earlier version applied jitter after clamping, so delays escaped to
// Cap·(1+Jitter). Now no (attempt, id) draw may exceed Cap — while the
// E28 bench configuration (Base 2, Cap 32, Jitter 0.5, healMaxRetries
// 3) must keep its exact historical delays, which never reached the
// clamp (max pre-jitter delay 8, max post-jitter 12 < 32).
func TestExpBackoffJitterRespectsCap(t *testing.T) {
	b := ExpBackoff{Base: 3, Cap: 10, Jitter: 0.9, Seed: 11}
	for attempt := 1; attempt <= 12; attempt++ {
		for id := int32(0); id < 50; id++ {
			if d := b.Delay(attempt, id); d > b.Cap {
				t.Fatalf("Delay(%d, %d) = %d exceeds Cap %d", attempt, id, d, b.Cap)
			}
		}
	}
	e28 := ExpBackoff{Base: 2, Cap: 32, Jitter: 0.5, Seed: 1}
	for attempt := 1; attempt <= 4; attempt++ {
		for id := int32(0); id < 64; id++ {
			pre := 2 << (attempt - 1)
			want := pre + int(float64(pre)*0.5*faults.Hash01(1, int(id), attempt))
			if d := e28.Delay(attempt, id); d != want {
				t.Fatalf("E28 config Delay(%d, %d) = %d, want unchanged %d", attempt, id, d, want)
			}
		}
	}
}
