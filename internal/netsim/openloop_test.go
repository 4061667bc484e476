package netsim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"multipath/internal/faults"
	"multipath/internal/hypercube"
)

// msgRec is one PerMessage callback record.
type msgRec struct {
	arr, done int
	delivered bool
}

func recordPerMsg(m map[int32]msgRec) func(int32, int, int, bool) {
	return func(msg int32, arr, done int, delivered bool) {
		m[msg] = msgRec{arr, done, delivered}
	}
}

// sliceSink collects sink observations for multiset comparison.
type sliceSink struct{ vals []int }

func (s *sliceSink) Observe(v int) { s.vals = append(s.vals, v) }

// doneProbe records each message's MsgDone step.
type doneProbe struct{ done map[int32]int }

func (p *doneProbe) BeginRun(RunInfo)                    {}
func (p *doneProbe) StepEnd(int, []int)                  {}
func (p *doneProbe) FlitMoved(int, int32, int32)         {}
func (p *doneProbe) FlitDelivered(int, int32)            {}
func (p *doneProbe) FlitsDropped(int, int32, int)        {}
func (p *doneProbe) MsgDone(step int, msg int32, _ bool) { p.done[msg] = step }

// runBoth runs the naive reference and the engine on the same trace
// and asserts bit-identity: same OpenLoopResult (SkippedSteps aside —
// the reference never skips), same per-message records, same latency
// multiset. Both models' records must also respect the latency floor
// (checkLatencyFloor). Returns the engine's result and records.
func runBoth(t *testing.T, tmpls []*Message, tr *Trace, opts OpenLoopOpts) (*OpenLoopResult, map[int32]msgRec) {
	t.Helper()
	refRec := map[int32]msgRec{}
	refSink := &sliceSink{}
	refOpts := opts
	refOpts.PerMessage = recordPerMsg(refRec)
	refOpts.Sink = refSink
	ref, refErr := SimulateOpenLoopReference(tmpls, tr.Source(), refOpts)

	optRec := map[int32]msgRec{}
	optSink := &sliceSink{}
	optOpts := opts
	optOpts.PerMessage = recordPerMsg(optRec)
	optOpts.Sink = optSink
	opt, optErr := SimulateOpenLoop(tmpls, tr.Source(), optOpts)

	if (refErr == nil) != (optErr == nil) {
		t.Fatalf("error mismatch: reference %v, engine %v", refErr, optErr)
	}
	if refErr != nil {
		if refErr.Error() != optErr.Error() {
			t.Fatalf("error text mismatch: reference %q, engine %q", refErr, optErr)
		}
		return nil, nil
	}
	cmp := *opt
	cmp.SkippedSteps = 0
	if !reflect.DeepEqual(&cmp, ref) {
		t.Fatalf("result diverged:\nengine    %+v\nreference %+v", cmp, *ref)
	}
	checkLatencyFloor(t, "reference", tmpls, tr, opts.Mode, refRec)
	checkLatencyFloor(t, "engine", tmpls, tr, opts.Mode, optRec)
	if !reflect.DeepEqual(optRec, refRec) {
		t.Fatalf("per-message records diverged:\nengine    %v\nreference %v", optRec, refRec)
	}
	slices.Sort(refSink.vals)
	slices.Sort(optSink.vals)
	if !reflect.DeepEqual(optSink.vals, refSink.vals) {
		t.Fatalf("latency sinks diverged:\nengine    %v\nreference %v", optSink.vals, refSink.vals)
	}
	// Determinism of the engine itself.
	rerunRec := map[int32]msgRec{}
	optOpts.PerMessage = recordPerMsg(rerunRec)
	optOpts.Sink = &sliceSink{}
	rerun, err := SimulateOpenLoop(tmpls, tr.Source(), optOpts)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !reflect.DeepEqual(rerun, opt) || !reflect.DeepEqual(rerunRec, optRec) {
		t.Fatalf("engine nondeterministic: %+v vs %+v", rerun, opt)
	}
	return opt, optRec
}

// checkLatencyFloor asserts the analytic latency floor on every
// delivered message of a PerMessage record set: a message of f flits on
// an h-hop route needs done − arrival ≥ h + f − 1 steps under
// CutThrough (the head flit crosses one hop per step and the tail
// follows f − 1 steps behind) and ≥ h·f under StoreAndForward (each hop
// buffers the whole message before forwarding it). An empty route
// delivers at its arrival step. The bound is tight: an uncontended
// message meets it exactly.
func checkLatencyFloor(t *testing.T, model string, tmpls []*Message, tr *Trace, mode Mode, rec map[int32]msgRec) {
	t.Helper()
	for msg, r := range rec {
		if !r.delivered {
			continue
		}
		m := tmpls[tr.Arrivals[msg].Tmpl]
		h, f := len(m.Route), m.Flits
		floor := h + f - 1
		if mode == StoreAndForward {
			floor = h * f
		}
		if h == 0 {
			floor = 0
		}
		if lat := r.done - r.arr; lat < floor || h == 0 && lat != 0 {
			t.Fatalf("%s %v: msg %d (%d hops, %d flits) took %d steps, floor %d", model, mode, msg, h, f, lat, floor)
		}
	}
}

func permTemplates(t *testing.T, n, flits int, seed int64) []*Message {
	t.Helper()
	q := hypercube.New(n)
	rng := rand.New(rand.NewSource(seed))
	return permMessages(q, rng.Perm(q.Nodes()), flits)
}

// allAtZero builds the trace that injects template i as message i at
// step 0 — the degenerate trace the closed-loop engine must match.
func allAtZero(tmpls []*Message) *Trace {
	tr := &Trace{}
	for i := range tmpls {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: 0, Tmpl: int32(i)})
	}
	return tr
}

// TestOpenLoopAllAtZeroMatchesSimulate pins the correctness anchor: a
// trace whose arrivals all say step 0 reproduces the step-driven
// Simulate bit-identically — Result counters and every per-message
// completion step.
func TestOpenLoopAllAtZeroMatchesSimulate(t *testing.T) {
	sets := map[string][]*Message{
		"perm-q5": permTemplates(t, 5, 3, 7),
		"hand": {
			{Route: []int{0, 1, 2}, Flits: 2},
			{Route: []int{}, Flits: 1}, // empty route: delivered at step 0
			{Route: []int{1, 1, 0}, Flits: 3},
			{Route: []int{2, 0}, Flits: 1},
			{Route: []int{0, 1, 2}, Flits: 2},
		},
	}
	for name, tmpls := range sets {
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			closed, err := SimulateProbed(tmpls, mode, &doneProbe{done: map[int32]int{}})
			if err != nil {
				t.Fatalf("%s/%v: closed: %v", name, mode, err)
			}
			probe := &doneProbe{done: map[int32]int{}}
			closed, err = SimulateProbed(tmpls, mode, probe)
			if err != nil {
				t.Fatalf("%s/%v: closed: %v", name, mode, err)
			}
			opt, rec := runBoth(t, tmpls, allAtZero(tmpls), OpenLoopOpts{Mode: mode})
			if opt.Result != *closed {
				t.Fatalf("%s/%v: open-loop %+v != Simulate %+v", name, mode, opt.Result, *closed)
			}
			if opt.Injected != len(tmpls) || opt.InjectedHops == 0 && name == "perm-q5" {
				t.Fatalf("%s/%v: injected %d of %d", name, mode, opt.Injected, len(tmpls))
			}
			for msg, doneStep := range probe.done {
				r, ok := rec[msg]
				if !ok || !r.delivered || r.arr != 0 || r.done != doneStep {
					t.Fatalf("%s/%v: msg %d: open-loop %+v, Simulate done at %d", name, mode, msg, r, doneStep)
				}
			}
			if len(probe.done) != len(rec) {
				t.Fatalf("%s/%v: %d closed completions vs %d open-loop", name, mode, len(probe.done), len(rec))
			}
		}
	}
}

// TestOpenLoopMatchesReference drives staggered arrival traces with
// contention, same-step bursts, and long quiescent gaps through both
// models.
func TestOpenLoopMatchesReference(t *testing.T) {
	tmpls := permTemplates(t, 4, 3, 11)
	rng := rand.New(rand.NewSource(13))
	tr := &Trace{}
	step := 0
	for i := 0; i < 120; i++ {
		if i%17 == 0 {
			step += 40 + rng.Intn(100) // quiescent gap: exercises the leap
		} else if rng.Intn(3) > 0 {
			step += rng.Intn(3)
		}
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: step, Tmpl: int32(rng.Intn(len(tmpls)))})
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		opt, rec := runBoth(t, tmpls, tr, OpenLoopOpts{Mode: mode})
		if opt.Injected != len(tr.Arrivals) {
			t.Fatalf("%v: injected %d of %d", mode, opt.Injected, len(tr.Arrivals))
		}
		if opt.FlitsMoved+opt.DroppedFlits != opt.InjectedHops {
			t.Fatalf("%v: conservation: moved %d + dropped %d != injected %d",
				mode, opt.FlitsMoved, opt.DroppedFlits, opt.InjectedHops)
		}
		if opt.SkippedSteps == 0 {
			t.Fatalf("%v: trace has long gaps but no steps were skipped", mode)
		}
		if len(rec) != opt.Injected {
			t.Fatalf("%v: %d records for %d injected", mode, len(rec), opt.Injected)
		}
	}
}

// TestOpenLoopFastPathSwitchOver drives one run through every hand-over
// from a fast path to the general path: the trace opens with a step-0
// burst of every template (no slot reused yet: raw-position enqueue
// order, no free lists), later arrivals then reuse slots (the
// slot-table sort takes over), and a permanent link kill lands mid-run
// (the per-flit dead check switches on), after which the last arrival
// leaves recycling pointless again. The run must match the naive
// reference bit-identically, and a pooled engine that just
// ran a closed-loop burst must not leak arena state into the run.
func TestOpenLoopFastPathSwitchOver(t *testing.T) {
	tmpls := permTemplates(t, 3, 6, 17)
	// Kill the link most used past a route's first hop, so a message
	// can die while its trailing flits still move upstream.
	use := map[int]int{}
	for _, m := range tmpls {
		for h, id := range m.Route {
			if h > 0 {
				use[id]++
			}
		}
	}
	hot := -1
	for id, n := range use {
		if hot < 0 || n > use[hot] || n == use[hot] && id < hot {
			hot = id
		}
	}
	// Two more templates meet on one link right after disjoint first
	// hops. Re-injected at step 10 in reverse template order, each
	// reuses its own burst slot, so the newer message sits at the lower
	// positions when both join the shared link's FIFO in the same step:
	// raw position order is then the wrong tie-break.
	a, b := int32(len(tmpls)), int32(len(tmpls)+1)
	tmpls = append(tmpls, &Message{Route: []int{1001, 1003}, Flits: 2}, &Message{Route: []int{1002, 1003}, Flits: 2})
	const killStep = 14
	tr := allAtZero(tmpls)
	tr.Arrivals = append(tr.Arrivals, Arrival{Step: 10, Tmpl: b}, Arrival{Step: 10, Tmpl: a})
	rng := rand.New(rand.NewSource(29))
	for step := 11; step <= 50; step++ {
		for k := rng.Intn(4); k >= 0; k-- {
			tr.Arrivals = append(tr.Arrivals, Arrival{Step: step, Tmpl: int32(rng.Intn(len(tmpls)))})
		}
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		opts := OpenLoopOpts{Mode: mode, Faults: faults.NewSchedule().FailLink(hot, killStep)}
		opt, rec := runBoth(t, tmpls, tr, opts)
		if opt.FailedMsgs == 0 {
			t.Fatalf("%v: kill of link %d at step %d failed nothing", mode, hot, killStep)
		}
		early := 0
		for _, r := range rec {
			if r.delivered && r.done < killStep {
				early++
			}
		}
		if early == 0 {
			t.Fatalf("%v: nothing delivered before the kill; the run never started on the fast paths", mode)
		}
		e := newEngine()
		if _, err := e.simulate(tmpls, OpenLoopOpts{Mode: mode}); err != nil {
			t.Fatal(err)
		}
		again, err := e.openLoop(tmpls, tr.Source(), opts, closedRun{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, opt) {
			t.Fatalf("%v: run after a closed-loop burst on the same engine diverged: %+v vs %+v", mode, again, opt)
		}
		if slots := len(e.olSlotTmpl); slots >= opt.Injected {
			t.Fatalf("%v: %d slots for %d arrivals; no slot was reused", mode, slots, opt.Injected)
		}
	}
}

// TestOpenLoopLeapArithmetic pins the leap clock exactly: three
// uncontended 3-hop transfers at steps 0/1000/2000 with 2 flits
// cut-through each take hops+flits-1 = 4 steps, so the run spans 2004
// model steps of which 2·996 are leapt over.
func TestOpenLoopLeapArithmetic(t *testing.T) {
	tmpls := []*Message{{Route: []int{0, 1, 2}, Flits: 2}}
	tr := &Trace{Arrivals: []Arrival{{0, 0}, {1000, 0}, {2000, 0}}}
	opt, rec := runBoth(t, tmpls, tr, OpenLoopOpts{Mode: CutThrough})
	if opt.Steps != 2004 {
		t.Fatalf("Steps = %d, want 2004", opt.Steps)
	}
	if opt.SkippedSteps != 2*996 {
		t.Fatalf("SkippedSteps = %d, want %d", opt.SkippedSteps, 2*996)
	}
	if opt.MaxInFlight != 1 {
		t.Fatalf("MaxInFlight = %d, want 1", opt.MaxInFlight)
	}
	for msg, r := range rec {
		if !r.delivered || r.done-r.arr != 4 {
			t.Fatalf("msg %d: %+v, want latency 4", msg, r)
		}
	}
}

// TestOpenLoopFaults drives a permanent kill plus a transient delay
// through both models and checks the generalized conservation
// invariant.
func TestOpenLoopFaults(t *testing.T) {
	tmpls := permTemplates(t, 3, 2, 3)
	var usedLink int
	for _, m := range tmpls {
		if len(m.Route) > 0 {
			usedLink = m.Route[0]
			break
		}
	}
	tr := &Trace{}
	for i := 0; i < 40; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i / 3, Tmpl: int32(i % len(tmpls))})
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		sched := faults.NewSchedule()
		sched.FailLink(usedLink, 3)
		sched.FailLinkTransient(usedLink+1, 2, 6)
		opt, rec := runBoth(t, tmpls, tr, OpenLoopOpts{Mode: mode, Faults: sched})
		if opt.FailedMsgs == 0 {
			t.Fatalf("%v: permanent fault on used link %d failed nothing", mode, usedLink)
		}
		if opt.FlitsMoved+opt.DroppedFlits != opt.InjectedHops {
			t.Fatalf("%v: conservation: moved %d + dropped %d != injected %d",
				mode, opt.FlitsMoved, opt.DroppedFlits, opt.InjectedHops)
		}
		if opt.DeliveredMsgs+opt.FailedMsgs != opt.Injected {
			t.Fatalf("%v: delivered %d + failed %d != injected %d",
				mode, opt.DeliveredMsgs, opt.FailedMsgs, opt.Injected)
		}
		failed := 0
		for _, r := range rec {
			if !r.delivered {
				failed++
			}
		}
		if failed != opt.FailedMsgs {
			t.Fatalf("%v: records say %d failed, result %d", mode, failed, opt.FailedMsgs)
		}
	}
}

// TestOpenLoopGracefulTimeout blocks the only route with a transient
// outage longer than StepLimit: in-flight messages fail at the limit
// and the arrival beyond the limit is never injected.
func TestOpenLoopGracefulTimeout(t *testing.T) {
	tmpls := []*Message{{Route: []int{5, 6}, Flits: 2}}
	sched := faults.NewSchedule()
	sched.FailLinkTransient(5, 1, 5000)
	tr := &Trace{Arrivals: []Arrival{{0, 0}, {1, 0}, {2, 0}, {100, 0}}}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		opt, rec := runBoth(t, tmpls, tr, OpenLoopOpts{Mode: mode, Faults: sched, StepLimit: 20})
		if !opt.TimedOut || opt.Steps != 20 {
			t.Fatalf("%v: TimedOut=%v Steps=%d, want timeout at 20", mode, opt.TimedOut, opt.Steps)
		}
		if opt.Injected != 3 {
			t.Fatalf("%v: injected %d, want 3 (arrival at step 100 is beyond the limit)", mode, opt.Injected)
		}
		if opt.FailedMsgs != 3 {
			t.Fatalf("%v: failed %d, want 3", mode, opt.FailedMsgs)
		}
		for msg, r := range rec {
			if r.delivered || r.done != 20 {
				t.Fatalf("%v: msg %d: %+v, want failed at 20", mode, msg, r)
			}
		}
		if opt.FlitsMoved+opt.DroppedFlits != opt.InjectedHops {
			t.Fatalf("%v: conservation violated on timeout", mode)
		}
	}
}

// TestOpenLoopRecycling checks the slot arena is bounded by the
// in-flight window, not the injected total: 200 sequential transfers
// reuse one slot.
func TestOpenLoopRecycling(t *testing.T) {
	e := newEngine()
	tmpls := []*Message{{Route: []int{0, 1, 2}, Flits: 2}}
	tr := &Trace{}
	for i := 0; i < 200; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i * 10, Tmpl: 0})
	}
	opt, err := e.openLoop(tmpls, tr.Source(), OpenLoopOpts{Mode: CutThrough}, closedRun{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Injected != 200 || opt.DeliveredMsgs != 200 {
		t.Fatalf("injected %d delivered %d, want 200/200", opt.Injected, opt.DeliveredMsgs)
	}
	if opt.MaxInFlight != 1 {
		t.Fatalf("MaxInFlight = %d, want 1", opt.MaxInFlight)
	}
	if got := len(e.olSlotTmpl); got != 1 {
		t.Fatalf("arena holds %d slots after 200 sequential messages, want 1", got)
	}

	// Overlapping arrivals must each get their own slot.
	burst := &Trace{}
	for i := 0; i < 50; i++ {
		burst.Arrivals = append(burst.Arrivals, Arrival{Step: 0, Tmpl: 0})
	}
	opt, err = e.openLoop(tmpls, burst.Source(), OpenLoopOpts{Mode: CutThrough}, closedRun{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.MaxInFlight != 50 {
		t.Fatalf("burst MaxInFlight = %d, want 50", opt.MaxInFlight)
	}
	if got := len(e.olSlotTmpl); got != 50 {
		t.Fatalf("arena holds %d slots after a 50-message burst, want 50", got)
	}
}

// TestOpenLoopPooledReuse runs different workloads back to back through
// the pooled entry point; stale arena state from a previous run must
// not leak.
func TestOpenLoopPooledReuse(t *testing.T) {
	a := permTemplates(t, 4, 2, 5)
	b := []*Message{{Route: []int{9, 8, 7, 6}, Flits: 4}, {Route: nil, Flits: 1}}
	trA, trB := allAtZero(a), &Trace{Arrivals: []Arrival{{0, 0}, {3, 1}, {3, 0}}}
	first, err := SimulateOpenLoop(a, trA.Source(), OpenLoopOpts{Mode: CutThrough})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := SimulateOpenLoop(b, trB.Source(), OpenLoopOpts{Mode: StoreAndForward}); err != nil {
			t.Fatal(err)
		}
		again, err := SimulateOpenLoop(a, trA.Source(), OpenLoopOpts{Mode: CutThrough})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("iteration %d: pooled rerun diverged: %+v vs %+v", i, again, first)
		}
	}
}

// TestOpenLoopProbeNeverChangesResult attaches a probe and asserts the
// result is bit-identical to the probe-less run, and that MsgDone steps
// agree with PerMessage.
func TestOpenLoopProbeNeverChangesResult(t *testing.T) {
	tmpls := permTemplates(t, 4, 3, 17)
	tr := &Trace{}
	for i := 0; i < 60; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i / 2, Tmpl: int32(i % len(tmpls))})
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		bare, err := SimulateOpenLoop(tmpls, tr.Source(), OpenLoopOpts{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		probe := &doneProbe{done: map[int32]int{}}
		rec := map[int32]msgRec{}
		probed, err := SimulateOpenLoop(tmpls, tr.Source(), OpenLoopOpts{
			Mode: mode, Probe: probe, PerMessage: recordPerMsg(rec),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(probed, bare) {
			t.Fatalf("%v: probe changed the result: %+v vs %+v", mode, probed, bare)
		}
		if len(probe.done) != len(rec) {
			t.Fatalf("%v: probe saw %d completions, PerMessage %d", mode, len(probe.done), len(rec))
		}
		for msg, doneStep := range probe.done {
			if rec[msg].done != doneStep {
				t.Fatalf("%v: msg %d: MsgDone %d vs PerMessage %d", mode, msg, doneStep, rec[msg].done)
			}
		}
	}
}

// TestOpenLoopMeasureAfter checks the warm-up cutoff: only messages
// arriving at or after MeasureAfter feed the sink.
func TestOpenLoopMeasureAfter(t *testing.T) {
	tmpls := []*Message{{Route: []int{0, 1}, Flits: 1}}
	tr := &Trace{Arrivals: []Arrival{{0, 0}, {5, 0}, {10, 0}, {15, 0}}}
	sink := &sliceSink{}
	opt, err := SimulateOpenLoop(tmpls, tr.Source(), OpenLoopOpts{Mode: CutThrough, MeasureAfter: 10, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if opt.DeliveredMsgs != 4 {
		t.Fatalf("delivered %d, want 4", opt.DeliveredMsgs)
	}
	if len(sink.vals) != 2 {
		t.Fatalf("sink saw %d latencies, want 2 (arrivals at 10 and 15)", len(sink.vals))
	}
}

type unboundedFaults struct{}

func (unboundedFaults) Status(link, step int) (bool, bool) { return false, false }
func (unboundedFaults) Horizon() int                       { return -1 }

// TestOpenLoopErrors covers input validation on both models.
func TestOpenLoopErrors(t *testing.T) {
	good := []*Message{{Route: []int{0, 1}, Flits: 1}}
	cases := map[string]struct {
		tmpls []*Message
		tr    *Trace
		opts  OpenLoopOpts
	}{
		"zero flits": {
			tmpls: []*Message{{Route: []int{0}, Flits: 0}},
			tr:    &Trace{Arrivals: []Arrival{{0, 0}}},
		},
		"template out of range": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{0, 7}}},
		},
		"negative template": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{0, -1}}},
		},
		"negative step": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{-3, 0}}},
		},
		"decreasing steps": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{9, 0}, {4, 0}}},
		},
		"unbounded horizon without limit": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{0, 0}}},
			opts:  OpenLoopOpts{Faults: unboundedFaults{}},
		},
		"negative StepLimit": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{0, 0}}},
			opts:  OpenLoopOpts{StepLimit: -1},
		},
		"negative MeasureAfter": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{0, 0}}},
			opts:  OpenLoopOpts{MeasureAfter: -10},
		},
	}
	for name, c := range cases {
		if _, err := SimulateOpenLoop(c.tmpls, c.tr.Source(), c.opts); err == nil {
			t.Errorf("%s: engine accepted bad input", name)
		}
		if _, err := SimulateOpenLoopReference(c.tmpls, c.tr.Source(), c.opts); err == nil {
			t.Errorf("%s: reference accepted bad input", name)
		}
	}
	// Unbounded horizon is fine with an explicit StepLimit.
	if _, err := SimulateOpenLoop(good, (&Trace{Arrivals: []Arrival{{0, 0}}}).Source(),
		OpenLoopOpts{Faults: unboundedFaults{}, StepLimit: 50}); err != nil {
		t.Errorf("unbounded horizon with StepLimit: %v", err)
	}
}

// TestOpenLoopEmptyInputs: no arrivals is a valid (empty) run.
func TestOpenLoopEmptyInputs(t *testing.T) {
	opt, rec := runBoth(t, permTemplates(t, 3, 1, 1), &Trace{}, OpenLoopOpts{Mode: CutThrough})
	if opt.Steps != 0 || opt.Injected != 0 || len(rec) != 0 {
		t.Fatalf("empty trace: %+v", opt)
	}
	// No templates at all is fine as long as no arrival names one.
	if _, err := SimulateOpenLoop(nil, (&Trace{}).Source(), OpenLoopOpts{}); err != nil {
		t.Fatalf("nil templates, empty trace: %v", err)
	}
}

// TestRecordArrivals covers the bounded-recording guard and replay.
func TestRecordArrivals(t *testing.T) {
	tr := &Trace{Arrivals: []Arrival{{0, 0}, {2, 1}, {2, 0}}}
	got, err := RecordArrivals(tr.Source(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip: %+v vs %+v", got, tr)
	}
	if _, err := RecordArrivals(tr.Source(), 2); err == nil {
		t.Fatal("max=2 accepted a 3-arrival source")
	}
}

// TestOpenLoopAllocs pins the slot-recycling claim: a warm engine's
// steady-state allocations per injected message are ~0. The run
// injects 4000 messages; the per-run constant (result struct, a few
// escaping closures, the replay cursor) stays under 64 allocations.
func TestOpenLoopAllocs(t *testing.T) {
	e := newEngine()
	tmpls := permTemplates(t, 4, 2, 23)
	const n = 4000
	tr := &Trace{}
	for i := 0; i < n; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i / 4, Tmpl: int32(i % len(tmpls))})
	}
	opts := OpenLoopOpts{Mode: CutThrough}
	if _, err := e.openLoop(tmpls, tr.Source(), opts, closedRun{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := e.openLoop(tmpls, tr.Source(), opts, closedRun{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("warm open-loop run of %d messages allocated %.0f times (%.4f/message), want ≈0/message",
			n, allocs, allocs/n)
	}
	t.Logf("warm run: %.0f allocs for %d messages (%.5f per message)", allocs, n, allocs/n)
}
