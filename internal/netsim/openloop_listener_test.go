package netsim

import (
	"reflect"
	"slices"
	"testing"

	"multipath/internal/faults"
)

// lisEvent is one recorded FaultListener callback.
type lisEvent struct {
	kind string // "down" or "fail"
	step int
	link int
	msg  int32
	perm bool
}

// recListener records the listener event stream without reacting.
type recListener struct{ ev []lisEvent }

func (r *recListener) LinkDown(step, link int, permanent bool) {
	r.ev = append(r.ev, lisEvent{kind: "down", step: step, link: link, perm: permanent})
}

func (r *recListener) MsgFailed(step int, msg int32, link int) {
	r.ev = append(r.ev, lisEvent{kind: "fail", step: step, link: link, msg: msg})
}

// listenerTmpls is a hand route set over links 0..9 with route lengths
// and flit counts varied enough that slot recycling shuffles slot
// order away from message order (exercising the canonical sweeps).
func listenerTmpls() []*Message {
	return []*Message{
		{Route: []int{0, 1, 2, 3}, Flits: 2},
		{Route: []int{2, 5}, Flits: 1},
		{Route: []int{5, 6, 7}, Flits: 3},
		{Route: []int{7, 8, 9, 0}, Flits: 1},
		{Route: []int{4, 2}, Flits: 2},
	}
}

func listenerTrace() *Trace {
	tr := &Trace{}
	for i := 0; i < 40; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i / 2, Tmpl: int32(i % 5)})
	}
	return tr
}

// TestOpenLoopListenerInert holds the listener contract's two pillars
// on a faulty, timing-out run: (1) attaching a non-reacting listener
// never changes results, per-message records, or latency sinks; (2)
// the event stream replays identically — same events, same order —
// with LinkDown ascending by link within a step and StepLimit sweeps
// blaming link -1 in ascending message order.
func TestOpenLoopListenerInert(t *testing.T) {
	tmpls := listenerTmpls()
	sched := faults.NewSchedule().
		FailLink(2, 4).
		FailLinkTransient(5, 3, 9).
		FailLink(7, 12)
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		opts := OpenLoopOpts{Mode: mode, Faults: sched, StepLimit: 18}

		baseRec := map[int32]msgRec{}
		baseSink := &sliceSink{}
		baseOpts := opts
		baseOpts.PerMessage = recordPerMsg(baseRec)
		baseOpts.Sink = baseSink
		base, err := SimulateOpenLoop(tmpls, listenerTrace().Source(), baseOpts)
		if err != nil {
			t.Fatalf("%v: baseline: %v", mode, err)
		}
		slices.Sort(baseSink.vals)

		var first []lisEvent
		for rep := range 2 {
			lis := &recListener{}
			rec := map[int32]msgRec{}
			sink := &sliceSink{}
			lo := opts
			lo.Listener = lis
			lo.PerMessage = recordPerMsg(rec)
			lo.Sink = sink
			olr, err := SimulateOpenLoop(tmpls, listenerTrace().Source(), lo)
			if err != nil {
				t.Fatalf("%v/rep=%d: %v", mode, rep, err)
			}
			if !reflect.DeepEqual(olr, base) {
				t.Fatalf("%v/rep=%d: listener changed result:\nwith    %+v\nwithout %+v", mode, rep, *olr, *base)
			}
			if !reflect.DeepEqual(rec, baseRec) {
				t.Fatalf("%v/rep=%d: listener changed per-message records", mode, rep)
			}
			slices.Sort(sink.vals)
			if !reflect.DeepEqual(sink.vals, baseSink.vals) {
				t.Fatalf("%v/rep=%d: listener changed sink: %v vs %v", mode, rep, sink.vals, baseSink.vals)
			}
			if first == nil {
				first = lis.ev
				continue
			}
			if !reflect.DeepEqual(lis.ev, first) {
				t.Fatalf("%v/rep=%d: event stream diverged on replay:\n%v\nvs\n%v", mode, rep, lis.ev, first)
			}
		}

		// Shape of the canonical stream: at least one kill and one
		// sweep; within a step LinkDown links ascend and sweep
		// failures ascend by message id; kills blame a real link.
		downs, kills, sweeps := 0, 0, 0
		lastDownStep, lastDownLink := -1, -1
		lastSweepMsg := int32(-1)
		failed := map[int32]bool{}
		for _, ev := range first {
			switch ev.kind {
			case "down":
				downs++
				if !ev.perm {
					t.Fatalf("%v: transient outage reported as LinkDown: %+v", mode, ev)
				}
				if ev.step == lastDownStep && ev.link <= lastDownLink {
					t.Fatalf("%v: LinkDown out of canonical order: %+v", mode, ev)
				}
				lastDownStep, lastDownLink = ev.step, ev.link
			case "fail":
				if failed[ev.msg] {
					t.Fatalf("%v: msg %d failed twice", mode, ev.msg)
				}
				failed[ev.msg] = true
				if ev.link >= 0 {
					kills++
				} else {
					sweeps++
					if ev.step != opts.StepLimit {
						t.Fatalf("%v: sweep at step %d, limit %d", mode, ev.step, opts.StepLimit)
					}
					if ev.msg <= lastSweepMsg {
						t.Fatalf("%v: sweep out of message order: %d after %d", mode, ev.msg, lastSweepMsg)
					}
					lastSweepMsg = ev.msg
				}
			}
		}
		if downs == 0 || kills == 0 || sweeps < 2 {
			t.Fatalf("%v: thin event stream: %d downs, %d kills, %d sweeps (want sweeps >= 2)", mode, downs, kills, sweeps)
		}
		if kills+sweeps != base.FailedMsgs {
			t.Fatalf("%v: %d MsgFailed events, %d failed messages", mode, kills+sweeps, base.FailedMsgs)
		}
	}
}

// rerouteProbeSession is a minimal reacting source+listener: every
// message killed by link 0 is re-enqueued three steps later on
// template 1 (the sibling route) — the netsim-level skeleton of the
// selfheal session, exercising the post-exhaustion re-poll.
type rerouteProbeSession struct {
	queue []Arrival
	at    int
	ev    []lisEvent
}

func (s *rerouteProbeSession) Next() (Arrival, bool) {
	if s.at < len(s.queue) {
		a := s.queue[s.at]
		s.at++
		return a, true
	}
	return Arrival{}, false
}

func (s *rerouteProbeSession) LinkDown(step, link int, permanent bool) {
	s.ev = append(s.ev, lisEvent{kind: "down", step: step, link: link, perm: permanent})
}

func (s *rerouteProbeSession) MsgFailed(step int, msg int32, link int) {
	s.ev = append(s.ev, lisEvent{kind: "fail", step: step, link: link, msg: msg})
	if link == 0 {
		s.queue = append(s.queue, Arrival{Step: step + 3, Tmpl: 1})
	}
}

// TestOpenLoopListenerReroute drives the reroute-injection mechanism:
// the source is exhausted when link 0 dies, the listener schedules a
// replacement arrival on the disjoint sibling route, and the engine's
// re-poll picks it up — identically on replay, with conservation over
// the grown injected set.
func TestOpenLoopListenerReroute(t *testing.T) {
	tmpls := []*Message{
		{Route: []int{0, 1}, Flits: 3},
		{Route: []int{2, 3}, Flits: 3},
	}
	sched := faults.NewSchedule().FailLink(0, 2)
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		var baseline *OpenLoopResult
		var firstEv []lisEvent
		for rep := range 2 {
			ses := &rerouteProbeSession{queue: []Arrival{{Step: 0, Tmpl: 0}}}
			rec := map[int32]msgRec{}
			opts := OpenLoopOpts{
				Mode:       mode,
				Faults:     sched,
				StepLimit:  50,
				PerMessage: recordPerMsg(rec),
				Listener:   ses,
			}
			olr, err := SimulateOpenLoop(tmpls, ses, opts)
			if err != nil {
				t.Fatalf("%v/rep=%d: %v", mode, rep, err)
			}
			if olr.Injected != 2 || olr.DeliveredMsgs != 1 || olr.FailedMsgs != 1 {
				t.Fatalf("%v/rep=%d: injected %d delivered %d failed %d, want 2/1/1",
					mode, rep, olr.Injected, olr.DeliveredMsgs, olr.FailedMsgs)
			}
			if r := rec[0]; r.delivered || r.done != 2 {
				t.Fatalf("%v/rep=%d: original message record %+v, want failed at step 2", mode, rep, r)
			}
			if r := rec[1]; !r.delivered || r.arr != 5 {
				t.Fatalf("%v/rep=%d: reroute record %+v, want delivered, arrival 5", mode, rep, r)
			}
			if olr.FlitsMoved+olr.DroppedFlits != olr.InjectedHops {
				t.Fatalf("%v/rep=%d: conservation: moved %d + dropped %d != injected hops %d",
					mode, rep, olr.FlitsMoved, olr.DroppedFlits, olr.InjectedHops)
			}
			if olr.TimedOut {
				t.Fatalf("%v/rep=%d: run timed out", mode, rep)
			}
			if baseline == nil {
				baseline, firstEv = olr, ses.ev
				continue
			}
			if !reflect.DeepEqual(olr, baseline) {
				t.Fatalf("%v/rep=%d: result diverged: %+v vs %+v", mode, rep, *olr, *baseline)
			}
			if !reflect.DeepEqual(ses.ev, firstEv) {
				t.Fatalf("%v/rep=%d: event stream diverged: %v vs %v", mode, rep, ses.ev, firstEv)
			}
		}
	}
}

// TestOpenLoopListenerRepollChain pins the re-poll loop under repeated
// exhaustion: a chain of three sibling routes where each reroute's
// link also dies, so the session reroutes twice before delivering on
// the last survivor — each reroute scheduled after the source had
// already reported exhaustion.
func TestOpenLoopListenerRepollChain(t *testing.T) {
	tmpls := []*Message{
		{Route: []int{0, 1}, Flits: 2},
		{Route: []int{2, 3}, Flits: 2},
		{Route: []int{4, 5}, Flits: 2},
	}
	sched := faults.NewSchedule().FailLink(0, 2).FailLink(2, 1)
	ses := &chainSession{queue: []Arrival{{Step: 0, Tmpl: 0}}}
	rec := map[int32]msgRec{}
	opts := OpenLoopOpts{
		Mode:       StoreAndForward,
		Faults:     sched,
		StepLimit:  60,
		PerMessage: recordPerMsg(rec),
		Listener:   ses,
	}
	olr, err := SimulateOpenLoop(tmpls, ses, opts)
	if err != nil {
		t.Fatal(err)
	}
	if olr.Injected != 3 || olr.DeliveredMsgs != 1 || olr.FailedMsgs != 2 {
		t.Fatalf("injected %d delivered %d failed %d, want 3/1/2",
			olr.Injected, olr.DeliveredMsgs, olr.FailedMsgs)
	}
	if r := rec[2]; !r.delivered {
		t.Fatalf("final reroute not delivered: %+v", r)
	}
}

// chainSession reroutes any failed message onto the next template.
type chainSession struct {
	queue []Arrival
	at    int
}

func (s *chainSession) Next() (Arrival, bool) {
	if s.at < len(s.queue) {
		a := s.queue[s.at]
		s.at++
		return a, true
	}
	return Arrival{}, false
}

func (s *chainSession) LinkDown(int, int, bool) {}

func (s *chainSession) MsgFailed(step int, msg int32, link int) {
	if link < 0 {
		return
	}
	last := s.queue[len(s.queue)-1]
	if int(last.Tmpl) < 2 {
		s.queue = append(s.queue, Arrival{Step: step + 2, Tmpl: last.Tmpl + 1})
	}
}
