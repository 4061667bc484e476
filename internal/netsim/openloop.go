package netsim

import (
	"cmp"
	"fmt"
	"slices"
)

// This file is the engine's single-goroutine store-and-forward /
// cut-through step loop. It injects messages over time from an
// ArrivalSource (the open-loop mode); the closed-loop entry points
// (Simulate, SimulateFaults, SimulateProbed, SimulateBatch) are the
// same loop with every message arriving at step 0. No per-step work is
// proportional to anything but live traffic:
//
//   - Routes are numbered once as *templates* (the same numberAll pass
//     every engine path uses); an arrival names a template, not a
//     route, so a run injecting millions of messages pays the
//     numbering pass once.
//   - Message state lives in a slot arena recycled through
//     per-template free lists: a delivered (or killed) message's
//     position range is reset and reused by a later arrival, so memory
//     is proportional to the peak in-flight window
//     (OpenLoopResult.MaxInFlight), never the injected total, and a
//     warm engine allocates nothing per message.
//   - A leap-step clock: whenever the network drains (no live
//     messages), the clock jumps directly to the next arrival's step
//     instead of iterating empty steps. In the synchronous model an
//     active network moves a flit every step, so the next event time
//     is min(next arrival, step+1) — the jump is exact, and
//     OpenLoopResult.SkippedSteps counts what it saved.
//
// Per-message latencies stream out through a LatencySink (or the
// PerMessage callback) instead of accumulating in result arrays.
//
// An arrival at step t joins its first link's FIFO at the end of step
// t (exactly where step t's newly arrived flits enqueue) and can cross
// its first link at step t+1, so a trace whose arrivals all say step 0
// is the closed-loop model of SimulateReference. The per-step enqueue
// tie-break is the documented (message id, hop) order, with trace
// position serving as the message id. SimulateOpenLoopReference and
// SimulateReference retain the naive models as golden references; the
// fuzzers hold the engine bit-identical to both.
//
// The general path pays for slot reuse, link deaths and pending
// arrivals at every step. Each has a fast path keyed on run state the
// loop already tracks, never on a setting (DESIGN.md states why each
// is exact):
//
//   - Until some slot is reused, slot order and position order are
//     message order, so an enqueue batch sorts as raw positions.
//   - Only a step that killed a slot can see a dead slot's flits in its
//     arrival phase, so other steps skip the per-flit dead check.
//   - A finished slot goes back on a free list only while another
//     arrival can still come to claim it.
//   - A closed-loop run injects its whole step-0 burst in one pass with
//     the arena laid out exactly like the templates (olBurst).

// Arrival is one open-loop message injection: at the end of Step, a
// message with template Tmpl (an index into the template slice handed
// to SimulateOpenLoop) enters the network. Sources must produce
// arrivals in nondecreasing Step order; message ids are assigned in
// arrival order starting at 0.
type Arrival struct {
	Step int
	Tmpl int32
}

// ArrivalSource streams arrivals. Sources are pulled lazily, one
// arrival ahead of the simulated clock, so a source generating
// millions of arrivals (internal/traffic's Poisson and MMPP
// processes) never needs to materialize them.
//
// When OpenLoopOpts.Listener is non-nil, Next may be called again
// after it has returned ok=false: a listener reacting to a failure can
// schedule reroute arrivals, so exhaustion is re-checked at every
// injection point. Arrivals produced by a re-poll must still respect
// the nondecreasing-step contract relative to everything returned
// before. Listener-off runs never re-poll.
type ArrivalSource interface {
	// Next returns the next arrival, or ok=false when the source is
	// exhausted.
	Next() (Arrival, bool)
}

// Trace is a materialized arrival sequence — the replayable form used
// by the golden-model tests and by benchmarks that time several
// engines on identical input.
type Trace struct {
	Arrivals []Arrival
}

// Source returns a fresh source that replays the trace from the start.
func (t *Trace) Source() ArrivalSource {
	s := traceSource(t.Arrivals)
	return &s
}

type traceSource []Arrival

func (s *traceSource) Next() (Arrival, bool) {
	if len(*s) == 0 {
		return Arrival{}, false
	}
	a := (*s)[0]
	*s = (*s)[1:]
	return a, true
}

// RecordArrivals drains a source into a replayable Trace. max, when
// positive, bounds the recording: a source still producing past max
// arrivals is an error (guarding against unbounded generators).
func RecordArrivals(src ArrivalSource, max int) (*Trace, error) {
	tr := &Trace{}
	for {
		a, ok := src.Next()
		if !ok {
			return tr, nil
		}
		tr.Arrivals = append(tr.Arrivals, a)
		if max > 0 && len(tr.Arrivals) > max {
			return nil, fmt.Errorf("netsim: arrival source exceeded %d arrivals", max)
		}
	}
}

// LatencySink receives one per-message latency (delivery step minus
// arrival step) per delivered message, streamed as deliveries happen.
// *obsv.Histogram satisfies it, so open-loop latencies fold straight
// into fixed-size histogram buckets with no per-message storage.
type LatencySink interface {
	Observe(v int)
}

// OpenLoopOpts configures an open-loop run.
type OpenLoopOpts struct {
	// Mode is the switching discipline (StoreAndForward or CutThrough).
	Mode Mode
	// Faults, when non-nil, injects link faults exactly as in
	// SimulateFaults: transient outages delay, permanent outages fail
	// the messages queued on them. Steps are queried in absolute
	// open-loop time (there is no StepOffset: the open-loop clock is
	// the schedule clock).
	Faults LinkFaults
	// StepLimit, when positive, is a graceful timeout: the run stops
	// after that step, messages still in flight are failed (reported
	// with delivered=false at the limit step), and arrivals after the
	// limit are never injected. When zero, a livelock bound applies as
	// in Simulate and exceeding it is an error; a Faults model with
	// unbounded Horizon then requires an explicit StepLimit.
	StepLimit int
	// MeasureAfter is the warm-up cutoff: only messages that *arrive*
	// at or after this step feed Sink, so steady-state percentiles
	// exclude the transient ramp. PerMessage and the Result counters
	// always see every message.
	MeasureAfter int
	// Sink, when non-nil, receives delivery_step − arrival_step for
	// every delivered message arriving at or after MeasureAfter.
	Sink LatencySink
	// PerMessage, when non-nil, is called once per injected message at
	// its completion: delivery (delivered=true) or failure/timeout
	// (delivered=false, done is the failure step). msg is the arrival
	// index.
	PerMessage func(msg int32, arrival, done int, delivered bool)
	// Probe, when non-nil, receives observation events as in the
	// closed-loop paths, with two open-loop adjustments: RunInfo
	// .Messages is -1 (the total is unknown up front), and StepEnd
	// fires only for simulated steps — steps the leap clock skips
	// (nothing in flight) are never observed. Message ids are arrival
	// indices.
	Probe Probe
	// Listener, when non-nil, receives failure notifications (link
	// deaths and the message ids they doom) in the canonical order
	// documented on FaultListener, and enables source re-polling so a
	// reacting listener can inject reroute arrivals. Nil-checked at
	// every call site: listener-off runs are bit-identical.
	Listener FaultListener
}

// validate rejects option values that would otherwise silently
// misbehave: a negative MeasureAfter admits every message into the
// steady-state window, and a negative StepLimit disables the livelock
// bound without enabling the graceful timeout. Every open-loop entry
// point (engine, reference, sharded) runs this first.
func (o *OpenLoopOpts) validate() error {
	if o.StepLimit < 0 {
		return fmt.Errorf("netsim: OpenLoopOpts.StepLimit is negative (%d)", o.StepLimit)
	}
	if o.MeasureAfter < 0 {
		return fmt.Errorf("netsim: OpenLoopOpts.MeasureAfter is negative (%d)", o.MeasureAfter)
	}
	return nil
}

// OpenLoopResult is the aggregate outcome of an open-loop run. The
// conservation invariant generalizes over the *injected* prefix:
//
//	FlitsMoved + DroppedFlits == InjectedHops
//
// (arrivals never injected because a graceful StepLimit ended the run
// first are not counted in Injected or InjectedHops).
type OpenLoopResult struct {
	Result
	// Injected is the number of arrivals injected.
	Injected int
	// InjectedHops is Σ flits·len(route) over injected messages — the
	// right-hand side of the conservation invariant.
	InjectedHops int
	// SkippedSteps counts steps the leap clock jumped over without
	// simulating (Steps includes them: Steps is model time).
	SkippedSteps int
	// MaxInFlight is the peak number of simultaneously live messages —
	// the slot arena's high-water mark, and the run's memory footprint
	// in message slots.
	MaxInFlight int
	// TimedOut reports the run hit OpenLoopOpts.StepLimit with
	// messages in flight (all failed at that step) or arrivals still
	// pending (never injected).
	TimedOut bool
}

// SimulateOpenLoop runs the open-loop simulation on a pooled Engine:
// arrivals drawn from src instantiate route templates from tmpls and
// run under the same synchronous link model as Simulate. See
// OpenLoopOpts and the file comment for the contract. Like Simulate,
// it is safe for concurrent use.
func SimulateOpenLoop(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts) (*OpenLoopResult, error) {
	e := enginePool.Get().(*Engine)
	olr, err := e.SimulateOpenLoop(tmpls, src, opts)
	enginePool.Put(e)
	return olr, err
}

// SimulateOpenLoop is the Engine-level open-loop path; see the
// package-level SimulateOpenLoop.
func (e *Engine) SimulateOpenLoop(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts) (*OpenLoopResult, error) {
	return e.openLoop(tmpls, src, opts, closedRun{})
}

// closedRun is what a closed-loop entry point hands the step loops
// beyond OpenLoopOpts. With burst set, template i arrives at step 0 as
// message i and there is no source — the trace that defines the
// closed-loop model.
type closedRun struct {
	burst bool
	// outcomes, when non-nil, receives every message's verdict
	// (FaultResult.Outcomes, FailedLink blame included).
	outcomes []Outcome
	// offset shifts the step passed to LinkFaults.Status
	// (FaultOpts.StepOffset).
	offset int
}

// closedOpts maps closed-loop fault options onto the step loops'
// options. A closed-loop StepLimit ≤ 0 means "no timeout".
func closedOpts(mode Mode, opts FaultOpts) OpenLoopOpts {
	return OpenLoopOpts{Mode: mode, Faults: opts.Faults, StepLimit: max(opts.StepLimit, 0), Probe: opts.Probe}
}

// olRun is the run state the serial and sharded step loops share: the
// arrival stream, pulled one arrival ahead of the clock; the in-flight
// counters the livelock bound and the leap clock read; and the result
// being built.
type olRun struct {
	tmpls []*Message
	src   ArrivalSource // nil for a closed-loop burst
	opts  OpenLoopOpts
	olr   *OpenLoopResult
	closedRun

	live        int // slots currently in flight
	inFlight    int // their total flits, for the livelock bound
	nextMsg     int32
	lastStep    int // step of the last successful pull, for re-poll checks
	pending     Arrival
	havePending bool
	// reused reports that a slot has been handed to a second message;
	// until then slot order and position order are message order.
	reused bool
}

// begin resets the run state for a new run.
func (r *olRun) begin(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, cl closedRun) {
	*r = olRun{tmpls: tmpls, src: src, opts: opts, olr: &OpenLoopResult{}, closedRun: cl}
}

// first pulls the run's first arrival.
func (r *olRun) first() error {
	if r.src == nil {
		return nil
	}
	r.pending, r.havePending = r.src.Next()
	if r.havePending {
		if r.pending.Step < 0 {
			return fmt.Errorf("netsim: arrival step %d is negative", r.pending.Step)
		}
		r.lastStep = r.pending.Step
	}
	return nil
}

// advance reads the arrival after the one just injected, enforcing
// nondecreasing steps; nextMsg is then the offending arrival's index.
func (r *olRun) advance() error {
	n, ok := r.src.Next()
	if ok {
		if n.Step < r.pending.Step {
			return fmt.Errorf("netsim: arrival %d: steps must be nondecreasing (step %d after %d)", r.nextMsg, n.Step, r.pending.Step)
		}
		r.lastStep = n.Step
	}
	r.pending, r.havePending = n, ok
	return nil
}

// repoll re-queries an exhausted source. With a listener attached the
// source may be a reacting session that schedules reroute arrivals
// from failure callbacks, so ok=false is never final; the loops ask
// again at every injection decision point. Listener-off runs keep the
// one-ahead pull pattern untouched.
func (r *olRun) repoll() error {
	if r.havePending || r.opts.Listener == nil {
		return nil
	}
	n, ok := r.src.Next()
	if !ok {
		return nil
	}
	if n.Step < r.lastStep {
		return fmt.Errorf("netsim: arrival %d: steps must be nondecreasing (step %d after %d)", r.nextMsg, n.Step, r.lastStep)
	}
	r.pending, r.havePending = n, true
	r.lastStep = n.Step
	return nil
}

// horizonError reports an unbounded fault horizon without a graceful
// StepLimit, naming the options type the caller passed.
func (r *olRun) horizonError() error {
	name := "OpenLoopOpts"
	if r.burst {
		name = "FaultOpts"
	}
	return fmt.Errorf("netsim: unbounded fault schedule requires %s.StepLimit", name)
}

// closedLimit is the closed-loop livelock bound, or 0 for runs that use
// the open-loop progress bound. The fault schedule's clock starts at
// offset, so only the horizon still ahead of the run can delay it.
func (r *olRun) closedLimit(shape routeShape, horizon int) int {
	if !r.burst || r.opts.StepLimit > 0 {
		return 0
	}
	return stepLimit(shape.totalFlits, shape.maxRoute, len(r.tmpls)) + max(horizon-r.offset, 0)
}

// runInfo is the probe's view of the run: the message total is known
// up front only for a closed-loop burst.
func (r *olRun) runInfo(e *Engine, links int32) RunInfo {
	msgs := -1
	if r.burst {
		msgs = len(r.tmpls)
	}
	return RunInfo{Messages: msgs, Links: int(links), LinkExt: e.ext[:links], Mode: r.opts.Mode}
}

// openLoop is the serial step loop behind every single-goroutine
// store-and-forward and cut-through entry point.
func (e *Engine) openLoop(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, cl closedRun) (*OpenLoopResult, error) {
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
	oldProbe := e.probe
	if opts.Probe != nil {
		e.probe = opts.Probe
	}
	defer func() {
		e.res = nil
		e.probe = oldProbe
	}()
	if e.probe != nil || opts.Faults != nil {
		e.fillExt(tmpls, links)
	}
	olr := r.olr
	e.res = &olr.Result
	if e.probe != nil {
		e.probe.BeginRun(r.runInfo(e, links))
	}
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
		if e.probe != nil {
			e.olProbeMoves(arr, step)
		}
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
		if e.probe != nil {
			e.olProbeDeliveries(arr, killed, step)
		}
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
		if e.probe != nil {
			e.probe.StepEnd(step, e.qlen[:links])
		}
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

// olTransfer is a step's transfer phase over the worklist cur: every
// active link moves its first sendable flit. Moved positions are
// appended to arr and permanently-down links to down; the worklist for
// the next step is rebuilt in e.work. Like olArrive it is its own
// function, so the per-flit loop is compiled apart from the per-step
// state, and it has no probe call site: the probe hears about the
// step's moves and deliveries from olProbeMoves and olProbeDeliveries,
// which replay the batches in the order the loops produced them.
func (e *Engine) olTransfer(cur, arr, down []int32, faults LinkFaults, offset, step int) ([]int32, []int32) {
	for _, l := range cur {
		if e.credit[l] <= 0 {
			e.inWork[l] = false
			continue
		}
		if faults != nil {
			if dn, perm := faults.Status(e.ext[l], offset+step); dn {
				if !perm {
					// Transient outage: hold the link in the worklist
					// and retry next step.
					e.work = append(e.work, l)
					continue
				}
				// Permanent outage: the kill waits for the end of the
				// transfer phase.
				down = append(down, l)
				e.inWork[l] = false
				continue
			}
		}
		prev := int32(-1)
		p := e.qhead[l]
		for p >= 0 && e.olArrived[p]-e.olCrossed[p] <= 0 {
			prev = p
			p = e.olQNext[p]
		}
		if p < 0 { // defensive: credit promised a sendable request
			e.credit[l] = 0
			e.inWork[l] = false
			continue
		}
		s := e.olPosSlot[p]
		e.olCrossed[p]++
		e.credit[l]--
		arr = append(arr, p)
		if e.olCrossed[p] == e.olSlotFl[s] {
			nx := e.olQNext[p]
			if prev < 0 {
				e.qhead[l] = nx
			} else {
				e.olQNext[prev] = nx
			}
			if nx < 0 {
				e.qtail[l] = prev
			}
			e.qlen[l]--
			e.olQueued[p] = false
		}
		if e.credit[l] > 0 {
			e.work = append(e.work, l)
		} else {
			e.inWork[l] = false
		}
	}
	return arr, down
}

// olProbeMoves reports the step's flit moves to the probe, in move
// order: position p crossed link olRoute[p].
func (e *Engine) olProbeMoves(arr []int32, step int) {
	for _, p := range arr {
		e.probe.FlitMoved(step, e.olSlotMsg[e.olPosSlot[p]], e.olRoute[p])
	}
}

// olProbeDeliveries reports the step's flit deliveries and message
// completions to the probe, in arrival order. It runs after the kill
// phase (a killed slot's flits do not deliver) and before olArrive
// releases the completed slots.
func (e *Engine) olProbeDeliveries(arr []int32, killed bool, step int) {
	for _, p := range arr {
		s := e.olPosSlot[p]
		if p+1 != e.olSlotEnd[s] || killed && e.olSlotDead[s] {
			continue
		}
		msg := e.olSlotMsg[s]
		e.probe.FlitDelivered(step, msg)
		if e.olCrossed[p] == e.olSlotFl[s] {
			e.probe.MsgDone(step, msg, true)
		}
	}
}

// olArrive is a step's arrival phase: every flit moved this step
// arrives at its next hop (or delivers), and the positions that must
// join their link's FIFO are appended to enq. Credits, deliveries, and
// the worklist are order-independent; only the order in which new
// requests join a FIFO is observable, so the caller sorts enq. Each
// position arrives at most once per step, so enq is duplicate-free.
// killed reports that this step's kill phase failed a slot.
func (e *Engine) olArrive(r *olRun, arr, enq []int32, killed bool, step int) []int32 {
	mode := r.opts.Mode
	for _, p := range arr {
		s := e.olPosSlot[p]
		if killed && e.olSlotDead[s] {
			continue
		}
		flits := e.olSlotFl[s]
		next := p + 1
		if next == e.olSlotEnd[s] {
			if e.olCrossed[p] == flits {
				// Recycling is safe immediately: a message delivering
				// at this step moved no other flit this step (all its
				// upstream hops finished on earlier steps), so no other
				// arr entry or enq candidate can reach s.
				e.olDeliver(r, s, step)
			}
			continue
		}
		switch mode {
		case CutThrough:
			e.olArrived[next]++
			if e.olQueued[next] {
				e.addCredit(e.olRoute[next], 1)
			}
		case StoreAndForward:
			e.olBuffer[next]++
			if e.olBuffer[next] == flits {
				e.olArrived[next] = flits
				if e.olQueued[next] {
					e.addCredit(e.olRoute[next], int(flits-e.olCrossed[next]))
				}
			}
		}
		if !e.olQueued[next] && e.olArrived[next] > 0 {
			enq = append(enq, next)
		}
	}
	return enq
}

// olPosCmp orders an enqueue batch by (message id, hop) — the
// documented FIFO tie-break — through the slot table, for runs in which
// recycled slots made position order history-dependent.
func (e *Engine) olPosCmp(a, b int32) int {
	sa, sb := e.olPosSlot[a], e.olPosSlot[b]
	if ma, mb := e.olSlotMsg[sa], e.olSlotMsg[sb]; ma != mb {
		if ma < mb {
			return -1
		}
		return 1
	}
	if ha, hb := a-e.olSlotOff[sa], b-e.olSlotOff[sb]; ha < hb {
		return -1
	}
	return 1
}

// olReset resets the slot arena for a new run: truncate (capacity
// survives across runs). The per-template free lists are sized by the
// first olRelease that needs them, so a run that never recycles (every
// closed-loop run) never touches them. Shared by the serial and sharded
// loops.
func (e *Engine) olReset() {
	e.olSlotTmpl = e.olSlotTmpl[:0]
	e.olSlotOff = e.olSlotOff[:0]
	e.olSlotEnd = e.olSlotEnd[:0]
	e.olSlotMsg = e.olSlotMsg[:0]
	e.olSlotArr = e.olSlotArr[:0]
	e.olSlotFl = e.olSlotFl[:0]
	e.olSlotDead = e.olSlotDead[:0]
	e.olKilled = e.olKilled[:0]
	e.olRoute = e.olRoute[:0]
	e.olPosSlot = e.olPosSlot[:0]
	e.olArrived = e.olArrived[:0]
	e.olCrossed = e.olCrossed[:0]
	e.olBuffer = e.olBuffer[:0]
	e.olQueued = e.olQueued[:0]
	e.olQNext = e.olQNext[:0]
	e.olFree = e.olFree[:0]
}

// olFreeInit sizes and empties the per-template free lists for a run
// over ntmpl templates.
func (e *Engine) olFreeInit(ntmpl int) {
	if cap(e.olFree) < ntmpl {
		e.olFree = append(e.olFree[:cap(e.olFree)], make([][]int32, ntmpl-cap(e.olFree))...)
	}
	e.olFree = e.olFree[:ntmpl]
	for i := range e.olFree {
		e.olFree[i] = e.olFree[i][:0]
	}
}

// olBurst injects every template at step 0 as the message with its own
// index — the closed-loop trace — in one pass over an empty arena, and
// hands each base position, in message order, to enqueue. Slot i is
// template i at the template's own positions, so the numbering pass's
// route and owner arrays already are the arena's position → link and
// position → slot maps: the arena takes them over, leaving route and
// posMsg empty until the next numbering pass (a burst has no source and
// no listener, so no slot is ever added by olNewSlot, the only reader
// of the template routes once a run has started). Empty-route templates
// keep a zero-length slot that never goes live.
func (e *Engine) olBurst(r *olRun, enqueue func(p int32)) {
	n := len(r.tmpls)
	total := int(e.off[n])
	e.olRoute, e.route = e.route[:total], e.olRoute[:0]
	e.olPosSlot, e.posMsg = e.posMsg[:total], e.olPosSlot[:0]
	e.olSlotTmpl = grow(e.olSlotTmpl, n)
	e.olSlotOff = grow(e.olSlotOff, n)
	e.olSlotEnd = grow(e.olSlotEnd, n)
	e.olSlotMsg = grow(e.olSlotMsg, n)
	e.olSlotArr = grow(e.olSlotArr, n)
	e.olSlotFl = grow(e.olSlotFl, n)
	e.olSlotDead = grow(e.olSlotDead, n)
	e.olArrived = grow(e.olArrived, total)
	e.olCrossed = grow(e.olCrossed, total)
	e.olBuffer = grow(e.olBuffer, total)
	e.olQueued = grow(e.olQueued, total)
	e.olQNext = grow(e.olQNext, total)
	clear(e.olArrived)
	clear(e.olCrossed)
	clear(e.olBuffer)
	clear(e.olQueued)
	clear(e.olSlotArr)
	clear(e.olSlotDead)
	copy(e.olSlotOff, e.off[:n])
	copy(e.olSlotEnd, e.off[1:n+1])
	olr := r.olr
	olr.Injected = n
	for i, m := range r.tmpls {
		s := int32(i)
		base, end := e.off[i], e.off[i+1]
		e.olSlotTmpl[i] = s
		e.olSlotFl[i] = int32(m.Flits)
		olr.InjectedHops += m.Flits * int(end-base)
		if base == end {
			e.olSlotMsg[i] = -1
			e.olDeliverEmpty(r, s, 0)
			continue
		}
		e.olSlotMsg[i] = s
		e.olArrived[base] = int32(m.Flits)
		r.live++
		r.inFlight += m.Flits
		enqueue(base)
	}
	olr.MaxInFlight = r.live
	r.nextMsg = int32(n)
}

// olInject injects the pending arrival at step and returns the base
// position to enqueue, or -1 for an empty-route template (delivered on
// the spot, latency 0).
func (e *Engine) olInject(r *olRun, step int) (int32, error) {
	t := r.pending.Tmpl
	if t < 0 || int(t) >= len(r.tmpls) {
		return -1, fmt.Errorf("netsim: arrival %d names template %d of %d", r.nextMsg, t, len(r.tmpls))
	}
	msg := r.nextMsg
	r.nextMsg++
	if r.nextMsg < 0 {
		return -1, fmt.Errorf("netsim: arrival count overflows int32 message ids")
	}
	flits := r.tmpls[t].Flits
	hops := int(e.off[t+1] - e.off[t])
	r.olr.Injected++
	r.olr.InjectedHops += flits * hops
	if hops == 0 {
		e.olDeliverEmpty(r, msg, step)
		return -1, nil
	}
	var s int32
	if len(e.olFree) > 0 && len(e.olFree[t]) > 0 {
		fl := e.olFree[t]
		s = fl[len(fl)-1]
		e.olFree[t] = fl[:len(fl)-1]
		r.reused = true
		base, end := e.olSlotOff[s], e.olSlotEnd[s]
		clear(e.olArrived[base:end])
		clear(e.olCrossed[base:end])
		clear(e.olBuffer[base:end])
		clear(e.olQueued[base:end])
	} else {
		s = e.olNewSlot(t, flits)
	}
	e.olSlotMsg[s] = msg
	e.olSlotArr[s] = step
	base := e.olSlotOff[s]
	e.olArrived[base] = int32(flits)
	r.live++
	r.inFlight += flits
	if r.live > r.olr.MaxInFlight {
		r.olr.MaxInFlight = r.live
	}
	return base, nil
}

// olDeliverEmpty completes an empty-route message at its arrival step.
func (e *Engine) olDeliverEmpty(r *olRun, msg int32, step int) {
	r.olr.DeliveredMsgs++
	if e.probe != nil {
		e.probe.MsgDone(step, msg, true)
	}
	if r.opts.Sink != nil && step >= r.opts.MeasureAfter {
		r.opts.Sink.Observe(0)
	}
	if r.opts.PerMessage != nil {
		r.opts.PerMessage(msg, step, step, true)
	}
	if r.outcomes != nil {
		r.outcomes[msg] = Outcome{Delivered: true, Step: step, FailedLink: -1}
	}
}

// olDeliver completes the message in slot s, whose last flit arrived at
// step, and releases the slot. The probe's delivery events are the
// caller's (the sharded engine emits them in its canonical flush).
func (e *Engine) olDeliver(r *olRun, s int32, step int) {
	msg, arrival := e.olSlotMsg[s], e.olSlotArr[s]
	r.olr.DeliveredMsgs++
	if r.opts.Sink != nil && arrival >= r.opts.MeasureAfter {
		r.opts.Sink.Observe(step - arrival)
	}
	if r.opts.PerMessage != nil {
		r.opts.PerMessage(msg, arrival, step, true)
	}
	if r.outcomes != nil {
		r.outcomes[msg] = Outcome{Delivered: true, Step: step, FailedLink: -1}
	}
	e.olRelease(r, s)
}

// olRelease frees slot s once its message has delivered or failed. The
// slot goes back on its template's free list only while another arrival
// can still claim it: one is pending, or a listener may schedule
// reroutes that a re-poll picks up.
func (e *Engine) olRelease(r *olRun, s int32) {
	r.live--
	r.inFlight -= int(e.olSlotFl[s])
	e.olSlotMsg[s] = -1
	if r.havePending || r.opts.Listener != nil {
		if len(e.olFree) == 0 {
			e.olFreeInit(len(r.tmpls))
		}
		t := e.olSlotTmpl[s]
		e.olFree[t] = append(e.olFree[t], s)
	}
}

// olNewSlot appends a fresh slot for template t to the arena, copying
// the template's dense route once. Append growth (not grow()) because
// the arena must survive reallocation with contents intact.
func (e *Engine) olNewSlot(t int32, flits int) int32 {
	s := int32(len(e.olSlotTmpl))
	base := int32(len(e.olRoute))
	e.olSlotTmpl = append(e.olSlotTmpl, t)
	e.olSlotOff = append(e.olSlotOff, base)
	e.olSlotMsg = append(e.olSlotMsg, -1)
	e.olSlotArr = append(e.olSlotArr, 0)
	e.olSlotFl = append(e.olSlotFl, int32(flits))
	e.olSlotDead = append(e.olSlotDead, false)
	e.olRoute = append(e.olRoute, e.route[e.off[t]:e.off[t+1]]...)
	end := int32(len(e.olRoute))
	e.olSlotEnd = append(e.olSlotEnd, end)
	for range end - base {
		e.olPosSlot = append(e.olPosSlot, s)
		e.olArrived = append(e.olArrived, 0)
		e.olCrossed = append(e.olCrossed, 0)
		e.olBuffer = append(e.olBuffer, 0)
		e.olQueued = append(e.olQueued, false)
		e.olQNext = append(e.olQNext, -1)
	}
	return s
}

// olEnqueue appends position p to its link's FIFO, updates the peak
// queue metric, and activates the link if p brings sendable flits.
func (e *Engine) olEnqueue(p int32) {
	l := e.olRoute[p]
	if e.qtail[l] < 0 {
		e.qhead[l] = p
	} else {
		e.olQNext[e.qtail[l]] = p
	}
	e.qtail[l] = p
	e.olQNext[p] = -1
	e.olQueued[p] = true
	e.qlen[l]++
	if e.qlen[l] > e.res.MaxLinkQueue {
		e.res.MaxLinkQueue = e.qlen[l]
	}
	if avail := e.olArrived[p] - e.olCrossed[p]; avail > 0 {
		e.addCredit(l, int(avail))
	}
}

// olKillQueued reports the permanently-down dense link l to the
// listener and fails every slot with a sendable request queued on it —
// each would have contended for the link this step and the link will
// never carry it. Requests still waiting for upstream flits are left
// alone; they fail on the later step their flits arrive. A slot may be
// queued on l at two hops (routes can repeat a link); olFailSlot's dead
// check keeps the kill idempotent. Killed slots are appended to
// olKilled; ev is as for olFailSlot.
func (e *Engine) olKillQueued(r *olRun, l int32, step int, ev *[]killEvent) {
	if r.opts.Listener != nil {
		r.opts.Listener.LinkDown(step, e.ext[l], true)
	}
	e.kill = e.kill[:0]
	for p := e.qhead[l]; p >= 0; p = e.olQNext[p] {
		s := e.olPosSlot[p]
		if e.olArrived[p]-e.olCrossed[p] > 0 && !e.olSlotDead[s] {
			e.kill = append(e.kill, s)
		}
	}
	blame := e.ext[l]
	for _, s := range e.kill {
		if e.olFailSlot(r, s, step, blame, ev) {
			e.olKilled = append(e.olKilled, s)
		}
	}
}

// olFailSlot marks slot s failed at step: removes its queued requests
// from their FIFOs, returns their credits, accounts every not-yet-moved
// flit-hop as dropped, and reports the failure — blame is the external
// id of the killing link (-1 for StepLimit sweeps), forwarded to the
// outcome and the FaultListener. The probe events go to the probe
// directly, or into *ev when the caller flushes them later in a
// canonical order (the sharded engine). Idempotent per step; the
// caller recycles the slot once the arrival phase has seen the dead
// flag. Reports whether this call did the kill.
func (e *Engine) olFailSlot(r *olRun, s int32, step, blame int, ev *[]killEvent) bool {
	if e.olSlotDead[s] {
		return false
	}
	e.olSlotDead[s] = true
	r.olr.FailedMsgs++
	flits := e.olSlotFl[s]
	dropped := 0
	for p := e.olSlotOff[s]; p < e.olSlotEnd[s]; p++ {
		dropped += int(flits - e.olCrossed[p])
		if e.olQueued[p] {
			l := e.olRoute[p]
			e.olUnlink(l, p)
			e.qlen[l]--
			e.olQueued[p] = false
			if avail := e.olArrived[p] - e.olCrossed[p]; avail > 0 {
				e.credit[l] -= int(avail)
			}
		}
	}
	r.olr.DroppedFlits += dropped
	msg := e.olSlotMsg[s]
	if e.probe != nil {
		if ev != nil {
			*ev = append(*ev, killEvent{msg: msg, dropped: dropped})
		} else {
			e.probe.FlitsDropped(step, msg, dropped)
			e.probe.MsgDone(step, msg, false)
		}
	}
	if r.opts.PerMessage != nil {
		r.opts.PerMessage(msg, e.olSlotArr[s], step, false)
	}
	if r.outcomes != nil {
		r.outcomes[msg] = Outcome{Step: step, FailedLink: blame}
	}
	if r.opts.Listener != nil {
		r.opts.Listener.MsgFailed(step, msg, blame)
	}
	return true
}

// olUnlink removes position p from dense link l's intrusive FIFO by
// walking from the head (queues are short; kills are rare).
func (e *Engine) olUnlink(l, p int32) {
	prev := int32(-1)
	q := e.qhead[l]
	for q >= 0 && q != p {
		prev = q
		q = e.olQNext[q]
	}
	if q < 0 { // defensive: position was not queued here
		return
	}
	nx := e.olQNext[p]
	if prev < 0 {
		e.qhead[l] = nx
	} else {
		e.olQNext[prev] = nx
	}
	if nx < 0 {
		e.qtail[l] = prev
	}
}
