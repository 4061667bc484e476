package netsim

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// simulateBaseline is Simulate run on a copy of the step loop with the
// probe call sites removed — the reference the probe-off overhead
// contract is stated against. baselineLoop is a verbatim copy of
// openLoop minus every e.probe site; the per-flit phases it calls
// (olTransfer, olArrive) have no probe sites and are shared, as are the
// cold helpers. If the step loop changes, this copy must be updated to
// match (TestProbeOffEquivalentToBaseline catches semantic drift).
func (e *Engine) simulateBaseline(msgs []*Message, mode Mode) (*Result, error) {
	olr, err := e.baselineLoop(msgs, nil, OpenLoopOpts{Mode: mode}, closedRun{burst: true})
	if err != nil {
		return nil, err
	}
	return &olr.Result, nil
}

func (e *Engine) baselineLoop(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, cl closedRun) (*OpenLoopResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	shape, err := e.numberAll(tmpls)
	if err != nil {
		return nil, err
	}
	links := shape.links
	maxRoute := shape.maxRoute

	var r olRun
	r.begin(tmpls, src, opts, cl)
	graceful := opts.StepLimit > 0
	horizon := 0
	if opts.Faults != nil {
		horizon = opts.Faults.Horizon()
		if horizon < 0 && !graceful {
			return nil, r.horizonError()
		}
	}

	e.growState(int(links))
	defer func() { e.res = nil }()
	if opts.Faults != nil {
		e.fillExt(tmpls, links)
	}
	olr := r.olr
	e.res = &olr.Result
	e.olReset()
	if err := r.first(); err != nil {
		return nil, err
	}

	limit := r.closedLimit(shape, horizon)
	faults, offset := opts.Faults, cl.offset

	posCmp := e.olPosCmp
	step := 0
	lastProgress := 0
	if cl.burst {
		e.olBurst(&r, e.olEnqueue)
	}
	for {
		if r.live == 0 {
			if err := r.repoll(); err != nil {
				return nil, err
			}
			if !r.havePending {
				break
			}
			if graceful && r.pending.Step > opts.StepLimit {
				// The naive model would iterate to the limit and stop;
				// the pending arrivals are never injected.
				olr.TimedOut = true
				break
			}
			if r.pending.Step > step {
				olr.SkippedSteps += r.pending.Step - step
				step = r.pending.Step
			}
			// Leap landing: inject everything due now. Bases enqueue in
			// trace order, which is (message id, hop=0) order already.
			enq := e.enq[:0]
			for r.havePending && r.pending.Step == step {
				base, err := e.olInject(&r, step)
				if err != nil {
					return nil, err
				}
				if base >= 0 {
					enq = append(enq, base)
				}
				if err := r.advance(); err != nil {
					return nil, err
				}
			}
			for _, p := range enq {
				e.olEnqueue(p)
			}
			e.enq = enq
			lastProgress = step
			continue
		}

		step++
		if graceful && step > opts.StepLimit {
			olr.TimedOut = true
			// Sweep in ascending message id order — the canonical
			// failure order shared with the sharded engine and the
			// reference model (slot order is arrival-history-dependent).
			sweep := e.kill[:0]
			for s := range e.olSlotMsg {
				if e.olSlotMsg[s] >= 0 {
					sweep = append(sweep, int32(s))
				}
			}
			slices.SortFunc(sweep, func(a, b int32) int {
				return cmp.Compare(e.olSlotMsg[a], e.olSlotMsg[b])
			})
			for _, s := range sweep {
				e.olFailSlot(&r, s, opts.StepLimit, -1, nil)
				e.olSlotDead[s] = false
				e.olSlotMsg[s] = -1
			}
			e.kill = sweep[:0]
			r.live, r.inFlight = 0, 0
			break
		}
		if limit > 0 {
			if step > limit {
				return nil, fmt.Errorf("netsim: no progress after %d steps", limit)
			}
		} else if !graceful {
			slack := stepLimit(r.inFlight, maxRoute, r.live)
			if h := horizon - lastProgress; h > 0 {
				slack += h
			}
			if step-lastProgress > slack {
				return nil, fmt.Errorf("netsim: no progress after %d steps", slack)
			}
		}

		cur := e.work
		e.work = e.scratch[:0]
		arr, down := e.olTransfer(cur, e.arrivals[:0], e.down[:0], faults, offset, step)
		olr.FlitsMoved += len(arr)
		// Kill phase: permanently-down links fail their sendable queued
		// messages after the transfer phase, in ascending dense-link-id
		// order. Deferring the kills out of the transfer loop makes the
		// step canonical: the worklist order (an artifact of
		// credit-activation history) decides neither which flits
		// squeeze through on other links before a doomed message dies
		// nor which of two down links gets the blame. The kill set is
		// itself loop-order-invariant: a down link moves nothing, so its
		// queue's sendable set cannot change during the transfer phase.
		// The sharded engine's kill barrier replays the same order.
		// Killed slots stay marked dead through the arrival phase (their
		// flits moved this step must not feed downstream hops) and are
		// recycled at the end of the step.
		killed := false
		if len(down) > 0 {
			slices.Sort(down)
			for _, l := range down {
				e.olKillQueued(&r, l, step, nil)
			}
			killed = len(e.olKilled) > 0
		}
		e.down = down
		enq := e.olArrive(&r, arr, e.enq[:0], killed, step)
		// Recycle slots killed this step (after the arrival phase so
		// their dead flags were visible to it; before injections so a
		// same-step arrival can reuse them).
		for _, s := range e.olKilled {
			e.olSlotDead[s] = false
			e.olRelease(&r, s)
		}
		e.olKilled = e.olKilled[:0]
		// Injections due this step join the enqueue batch. A listener
		// reacting to this step's kills may have scheduled reroutes, so
		// re-check an exhausted source first.
		if err := r.repoll(); err != nil {
			return nil, err
		}
		injected := false
		for r.havePending && r.pending.Step == step {
			base, err := e.olInject(&r, step)
			if err != nil {
				return nil, err
			}
			if base >= 0 {
				enq = append(enq, base)
			}
			injected = true
			if err := r.advance(); err != nil {
				return nil, err
			}
		}
		if r.reused {
			slices.SortFunc(enq, posCmp)
		} else {
			slices.Sort(enq)
		}
		for _, p := range enq {
			e.olEnqueue(p)
		}
		e.enq = enq
		e.arrivals = arr
		e.scratch = cur[:0]
		if len(arr) > 0 || killed || injected {
			lastProgress = step
		}
	}
	if olr.TimedOut {
		olr.Steps = opts.StepLimit
	} else {
		olr.Steps = step
	}
	return olr, nil
}

// overheadWorkload is a congested synthetic batch sized so one run
// spends long enough in the step loop for timing to be meaningful.
func overheadWorkload() []*Message {
	rng := rand.New(rand.NewSource(7))
	msgs := make([]*Message, 192)
	for i := range msgs {
		route := make([]int, 10)
		for h := range route {
			route[h] = rng.Intn(48)
		}
		msgs[i] = &Message{Route: route, Flits: 6}
	}
	return msgs
}

// The baseline copy must stay semantically identical to Simulate, or
// the overhead comparison measures two different simulators.
func TestProbeOffEquivalentToBaseline(t *testing.T) {
	msgs := overheadWorkload()
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		e := NewEngine()
		base, err := e.simulateBaseline(msgs, mode)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := Simulate(msgs, mode)
		if err != nil {
			t.Fatal(err)
		}
		if *base != *cur {
			t.Errorf("%v: baseline copy drifted from Simulate: %+v vs %+v", mode, base, cur)
		}
	}
}

// A probe-less Simulate performs exactly one allocation: the Result.
// SimulateWormhole likewise allocates only its WormholeResult.
func TestSimulateAllocs(t *testing.T) {
	msgs := overheadWorkload()
	e := NewEngine()
	if _, err := e.Simulate(msgs, CutThrough); err != nil { // warm buffers
		t.Fatal(err)
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		n := testing.AllocsPerRun(10, func() {
			if _, err := e.Simulate(msgs, mode); err != nil {
				t.Error(err)
			}
		})
		if n > 1 {
			t.Errorf("%v: %v allocs/run, want ≤ 1", mode, n)
		}
	}
	// Wormhole needs an acyclic channel order; ascending link ids (the
	// dimension-ordered discipline) cannot deadlock.
	whMsgs := make([]*Message, 64)
	for i := range whMsgs {
		whMsgs[i] = &Message{Route: []int{i % 8, 8 + i%8, 16 + i%8}, Flits: 4}
	}
	if _, err := e.simulateWormhole(whMsgs); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := e.simulateWormhole(whMsgs); err != nil {
			t.Error(err)
		}
	})
	if n > 1 {
		t.Errorf("wormhole: %v allocs/run, want ≤ 1", n)
	}
}

// TestProbeOffOverhead enforces the ≤2% overhead contract: with no
// probe attached, Simulate may not be measurably slower than the
// hook-free copy of its step loop (the untaken nil-check branches are
// the only difference). The statistic is the median of paired ratios.
// Each pair is a long sample of both loops interleaved run by run —
// drift in machine load hits both sides of a pair alike — and the
// median keeps outlier pairs from moving the verdict. The goroutine is
// locked to one OS thread throughout. The assertion is skipped under
// -short and under the race detector, whose instrumentation swamps a 2%
// margin.
func TestProbeOffOverhead(t *testing.T) {
	if raceDetectorOn {
		t.Skip("overhead margin not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	msgs := overheadWorkload()
	e := NewEngine()
	eBase, eCur := e, e
	run := func(e *Engine, baseline bool) time.Duration {
		start := time.Now()
		var err error
		if baseline {
			_, err = e.simulateBaseline(msgs, CutThrough)
		} else {
			_, err = e.Simulate(msgs, CutThrough)
		}
		d := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// pairRatio times one pair: runs of the two loops alternate, the
	// leader switching every run, and each side's times are summed.
	pairRatio := func() float64 {
		const runs = 40
		var base, cur time.Duration
		for i := 0; i < runs; i++ {
			if i%2 == 0 {
				base += run(eBase, true)
				cur += run(eCur, false)
			} else {
				cur += run(eCur, false)
				base += run(eBase, true)
			}
		}
		return float64(cur) / float64(base)
	}
	// Warm both engines' buffers so growth never lands in a timed run.
	run(eBase, true)
	run(eCur, false)

	const (
		margin = 1.02
		pairs  = 21
	)
	var best string
	for attempt := 0; attempt < 3; attempt++ {
		ratios := make([]float64, pairs)
		for i := range ratios {
			ratios[i] = pairRatio()
		}
		slices.Sort(ratios)
		ratio := ratios[pairs/2]
		if ratio <= margin {
			t.Logf("probe-off overhead %.2f%% (median of %d paired ratios, quartiles %.3f..%.3f)",
				(ratio-1)*100, pairs, ratios[pairs/4], ratios[3*pairs/4])
			return
		}
		best = fmt.Sprintf("median ratio %.4f (quartiles %.3f..%.3f)", ratio, ratios[pairs/4], ratios[3*pairs/4])
	}
	t.Errorf("probe-off overhead above %.0f%% margin after 3 attempts: %s",
		(margin-1)*100, best)
}
