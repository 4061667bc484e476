package netsim

import (
	"testing"
)

// decodeFuzzArrivals turns raw fuzz bytes into a bounded, valid
// arrival trace over ntmpl templates: up to 24 arrivals with
// nondecreasing steps, mostly small gaps plus an occasional long
// quiescent gap so the leap clock is exercised. As with the other
// fuzz decoders the decode is total — the fuzzer explores traffic
// shapes, not input validation (openloop_test covers the errors).
func decodeFuzzArrivals(data []byte, ntmpl int) *Trace {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		b := int(data[at])
		at++
		return b
	}
	count := next() % 25
	tr := &Trace{}
	step := 0
	for i := 0; i < count; i++ {
		switch next() % 8 {
		case 0: // long gap: the engine should leap over it
			step += 20 + next()
		case 1, 2: // same-step burst
		default:
			step += next() % 4
		}
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: step, Tmpl: int32(next() % ntmpl)})
	}
	return tr
}

// FuzzSimulateOpenLoop holds SimulateOpenLoop bit-identical to the
// retained naive golden model and to the step-driven Simulate, for
// random route sets × arrival traces × fault schedules in both
// buffering modes:
//
//   - engine ≡ SimulateOpenLoopReference: same OpenLoopResult (the
//     leap-step SkippedSteps aside), same per-message (arrival, done,
//     delivered) records, same latency multiset — fault-free, under a
//     bounded random schedule, and under a graceful StepLimit;
//   - replay anchor: a trace injecting every template at step 0
//     reproduces the step-driven Simulate's Result and per-message
//     completion steps exactly;
//   - generalized conservation: FlitsMoved + DroppedFlits equals the
//     injected flit-hops, and DeliveredMsgs + FailedMsgs equals the
//     injected count;
//   - latency floor: every delivered message of f flits on an h-hop
//     route took ≥ h + f − 1 steps under CutThrough and ≥ h·f under
//     StoreAndForward, 0 on an empty route, in the engine and in the
//     reference (checked inside runBoth);
//   - determinism: replaying the same trace gives identical results
//     (checked inside runBoth).
func FuzzSimulateOpenLoop(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add([]byte{3, 2, 1, 1, 4, 2, 1, 2, 5}, []byte{6, 3, 0, 1, 1, 3, 2, 0, 7, 1, 5, 0, 2}, []byte{})
	f.Add([]byte{5, 1, 3, 2, 1, 3, 2, 1, 3, 2}, []byte{9, 0, 200, 0, 3, 1, 1, 2, 0, 40, 1}, []byte{2, 3, 2, 0, 3, 1, 9})
	f.Add([]byte{2, 2, 9, 9, 4, 2, 9, 9, 4}, []byte{24, 1, 0, 1, 1, 1, 2, 1, 3}, []byte{4, 9, 1, 1, 9, 2, 0, 3, 1, 5, 3, 4, 1})
	f.Add([]byte{7, 6, 0, 1, 2, 3, 4, 5, 8}, []byte{12, 0, 250, 3, 0, 0, 1, 4, 5}, []byte{1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, routeData, arrData, schedData []byte) {
		tmpls := decodeFuzzMessages(routeData)
		tr := decodeFuzzArrivals(arrData, len(tmpls))
		sched := decodeFuzzSchedule(schedData)
		limit := 0
		if len(schedData) > 0 && schedData[0]%3 == 0 {
			limit = 1 + int(schedData[0])
		}
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			for _, opts := range []OpenLoopOpts{
				{Mode: mode},
				{Mode: mode, Faults: sched},
				{Mode: mode, Faults: sched, StepLimit: limit},
			} {
				if opts.StepLimit == 0 && opts.Faults == sched && limit == 0 {
					continue // identical to the plain faults case
				}
				opt, _ := runBoth(t, tmpls, tr, opts)
				if opt == nil {
					continue
				}
				if opt.FlitsMoved+opt.DroppedFlits != opt.InjectedHops {
					t.Fatalf("%v/%+v: conservation: moved %d + dropped %d != injected hops %d",
						mode, opts, opt.FlitsMoved, opt.DroppedFlits, opt.InjectedHops)
				}
				if opt.DeliveredMsgs+opt.FailedMsgs != opt.Injected {
					t.Fatalf("%v/%+v: delivered %d + failed %d != injected %d",
						mode, opts, opt.DeliveredMsgs, opt.FailedMsgs, opt.Injected)
				}
			}

			// Replay anchor: all templates at step 0 ≡ Simulate.
			probe := &doneProbe{done: map[int32]int{}}
			closed, err := SimulateProbed(tmpls, mode, probe)
			if err != nil {
				t.Fatalf("%v: Simulate: %v", mode, err)
			}
			opt, rec := runBoth(t, tmpls, allAtZero(tmpls), OpenLoopOpts{Mode: mode})
			if opt.Result != *closed {
				t.Fatalf("%v: all-at-0 open loop %+v != Simulate %+v", mode, opt.Result, *closed)
			}
			for msg, doneStep := range probe.done {
				if r := rec[msg]; !r.delivered || r.done != doneStep {
					t.Fatalf("%v: msg %d: open loop %+v vs Simulate done at %d", mode, msg, r, doneStep)
				}
			}
		}
	})
}
