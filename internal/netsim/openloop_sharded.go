package netsim

import (
	"fmt"
	"slices"
	"sync"
)

// This file is the sharded step loop: the partition and two-barrier
// step of sharded.go (dense link space split across worker goroutines)
// driven by the arrival stream and slot-recycling arena of openloop.go,
// with the serial loop's fast paths (see its file comment) keyed on the
// same run state. The closed-loop sharded entry points run it with
// every message arriving at step 0. The step is
//
//	transfer(k) ∥ …  →  [barrier: kills]  →  arrive(k) ∥ …  →  [barrier: step end]
//
// and everything the arrival stream adds is confined to the
// single-threaded barrier actions:
//
//   - Arrival dispatch: an arrival due at the closing step is injected
//     at the step-end barrier and its base position enqueued on the
//     shard owning its first link. Injected messages carry larger ids
//     than everything already in flight, so appending them after the
//     arrival phase's (message id, hop)-sorted enqueues preserves the
//     single-shard per-link FIFO order exactly.
//   - Global quiescence: when the step-end action observes no live
//     messages on any shard, the last-arriving worker leaps the clock
//     to the next pending arrival step (SkippedSteps accounting as in
//     the single-shard leap clock) and injects everything due there.
//     In the synchronous model an active network moves a flit every
//     step, so global quiescence is exactly the single-shard leap
//     condition.
//   - Slot recycling: the arena stays a single Engine-owned structure;
//     slots are allocated (injection) and recycled (delivery, kill,
//     timeout) only inside barrier actions, so the per-template free
//     lists need no synchronization and a warm run allocates nothing
//     per message. Slot identity is unobservable — FIFO tie-breaks and
//     all reported events are in message-id terms — so a single global
//     arena is bit-identity-safe even though the single-shard engine
//     recycles in a different within-step order.
//
// Canonical merge order: within a step the barrier flushes probe moves
// sorted by (link, message), then buffered kill events in the
// canonical ascending-link kill order, then deliveries sorted by
// message id; LatencySink observations and PerMessage callbacks fire
// in message-id order. Aggregate results are bit-identical to
// SimulateOpenLoop for every shard count; within-step event *order* is
// canonicalized (single-shard order is worklist-dependent), which the
// equivalence suite checks with order-insensitive stream comparisons.

// olSharded bundles an Engine (template numbering and the slot arena)
// with the partition, barrier, arrival stream, and per-shard states of
// one run. Everything below the barrier is written only during setup
// or inside barrier actions.
type olSharded struct {
	e      *Engine
	bar    stepBarrier
	states []*shardState
	owner  []uint8
	cuts   []int32

	olRun

	links     int32
	maxRoute  int
	horizon   int
	limit     int // closed-loop livelock bound, or 0 (see closedLimit)
	graceful  bool
	wantStats bool
	// killed reports that this step's kill barrier failed a slot; only
	// then can the arrival phase meet a dead slot's flits.
	killed bool

	step         int
	lastProgress int
	movedPrev    int // Σ st.moved at the previous step end
	done         bool
	err          error

	killEv  []killEvent
	mvBuf   []uint64
	arBuf   []uint64
	doneBuf []int32
	sweep   []int32
}

var olShardedPool = sync.Pool{New: func() any { return &olSharded{e: NewEngine()} }}

// SimulateOpenLoopSharded is SimulateOpenLoop partitioned across
// shards worker goroutines: whole-cube steady-state runs at
// million-link scale. Results, latency sinks, and probe streams carry
// the same information as the single-shard engine for every shard
// count (within-step event order is canonicalized as in
// SimulateShardedProbed); shards <= 1 takes the single-shard path
// untouched, and negative shard counts are an error. Probing is
// opts.Probe, as in SimulateOpenLoop.
func SimulateOpenLoopSharded(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, shards int) (*OpenLoopResult, error) {
	if shards < 0 {
		return nil, fmt.Errorf("netsim: negative shard count %d", shards)
	}
	if shards <= 1 {
		return SimulateOpenLoop(tmpls, src, opts)
	}
	sh := olShardedPool.Get().(*olSharded)
	olr, _, err := sh.run(tmpls, src, opts, closedRun{}, shards, false)
	olShardedPool.Put(sh)
	return olr, err
}

// SimulateOpenLoopShardedStats is SimulateOpenLoopSharded plus the
// per-shard accounting (load balance, boundary traffic, and the
// per-shard conservation invariant FlitsMoved + DroppedFlits ==
// InjectedHops over the injected prefix).
func SimulateOpenLoopShardedStats(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, shards int) (*OpenLoopResult, []ShardStat, error) {
	if shards < 0 {
		return nil, nil, fmt.Errorf("netsim: negative shard count %d", shards)
	}
	sh := olShardedPool.Get().(*olSharded)
	olr, stats, err := sh.run(tmpls, src, opts, closedRun{}, shards, true)
	olShardedPool.Put(sh)
	return olr, stats, err
}

// run is the shared core of every sharded entry point.
func (sh *olSharded) run(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, cl closedRun, shards int, wantStats bool) (*OpenLoopResult, []ShardStat, error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	e := sh.e
	shape, err := e.numberAll(tmpls)
	if err != nil {
		return nil, nil, err
	}
	links := shape.links

	// Fewer than two links cannot be partitioned; fall back to the
	// single-shard path on this run's private engine.
	if s := int(links); shards > s {
		shards = s
	}
	if shards > 255 { // owner table is uint8
		shards = 255
	}
	if shards <= 1 {
		return sh.runSingle(tmpls, src, opts, cl, wantStats)
	}

	sh.begin(tmpls, src, opts, cl)
	graceful := opts.StepLimit > 0
	horizon := 0
	if opts.Faults != nil {
		horizon = opts.Faults.Horizon()
		if horizon < 0 && !graceful {
			err := sh.horizonError()
			sh.reset()
			return nil, nil, err
		}
	}

	e.growState(int(links))
	e.probe = opts.Probe
	if opts.Probe != nil || opts.Faults != nil {
		e.fillExt(tmpls, links)
	}
	if opts.Probe != nil {
		opts.Probe.BeginRun(sh.runInfo(e, links))
	}
	e.olReset()

	// Partition: contiguous dense-id ranges of near-equal size. Dense
	// ids are assigned in route order, so ranges inherit whatever
	// locality the route construction has.
	sh.cuts = grow(sh.cuts, shards+1)
	for s := 0; s <= shards; s++ {
		sh.cuts[s] = int32(int64(links) * int64(s) / int64(shards))
	}
	sh.owner = grow(sh.owner, int(links))
	for s := 0; s < shards; s++ {
		for l := sh.cuts[s]; l < sh.cuts[s+1]; l++ {
			sh.owner[l] = uint8(s)
		}
	}
	for len(sh.states) < shards {
		sh.states = append(sh.states, &shardState{})
	}
	for k := 0; k < shards; k++ {
		st := sh.states[k]
		st.lo, st.hi = sh.cuts[k], sh.cuts[k+1]
		st.work = st.work[:0]
		st.scratch = st.scratch[:0]
		st.arr = st.arr[:0]
		st.enq = st.enq[:0]
		st.down = st.down[:0]
		st.pbMove = st.pbMove[:0]
		st.pbArrv = st.pbArrv[:0]
		st.doneSlots = st.doneSlots[:0]
		st.moved, st.maxQ = 0, 0
		st.injected, st.dropped, st.boundary = 0, 0, 0
		for len(st.out) < shards {
			st.out = append(st.out, newSPSCRing())
			st.spill = append(st.spill, nil)
		}
		for d := 0; d < shards; d++ {
			st.out[d].head.Store(0)
			st.out[d].tail.Store(0)
			st.spill[d] = st.spill[d][:0]
		}
	}

	sh.links = links
	sh.maxRoute = shape.maxRoute
	sh.horizon = horizon
	sh.limit = sh.closedLimit(shape, horizon)
	sh.graceful = graceful
	sh.wantStats = wantStats
	sh.killed = false
	sh.step = 0
	sh.lastProgress = 0
	sh.movedPrev = 0
	sh.done = false
	sh.err = nil
	sh.killEv = sh.killEv[:0]
	sh.bar.init(shards)

	if err := sh.first(); err != nil {
		sh.reset()
		return nil, nil, err
	}
	if cl.burst {
		e.olBurst(&sh.olRun, func(p int32) {
			sh.olEnqueueShard(sh.states[sh.owner[e.olRoute[p]]], p)
		})
		if wantStats {
			for p, l := range e.olRoute {
				sh.states[sh.owner[l]].injected += int(e.olSlotFl[e.olPosSlot[p]])
			}
		}
	}

	// Leap to the first arrivals and inject them, then open the first
	// simulated step. Both run the same barrier-action code the workers
	// will use, just before any worker exists.
	sh.advanceIdle()
	if !sh.done {
		sh.beginStep()
	}
	if !sh.done {
		var wg sync.WaitGroup
		for k := 1; k < shards; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				sh.worker(k)
			}(k)
		}
		sh.worker(0)
		wg.Wait()
	}

	stepLimitOpt := opts.StepLimit
	err = sh.err
	olr := sh.olr
	sh.reset()
	if err != nil {
		return nil, nil, err
	}
	for _, st := range sh.states[:shards] {
		olr.FlitsMoved += st.moved
		if st.maxQ > olr.MaxLinkQueue {
			olr.MaxLinkQueue = st.maxQ
		}
	}
	if olr.TimedOut {
		olr.Steps = stepLimitOpt
	} else {
		olr.Steps = sh.step
	}
	var stats []ShardStat
	if wantStats {
		stats = make([]ShardStat, shards)
		for k, st := range sh.states[:shards] {
			stats[k] = ShardStat{
				Links:        int(st.hi - st.lo),
				FlitsMoved:   st.moved,
				DroppedFlits: st.dropped,
				InjectedHops: st.injected,
				BoundaryOut:  st.boundary,
			}
		}
	}
	return olr, stats, nil
}

// reset drops the run's references to caller-owned objects (source,
// sinks, callbacks, probe, outcomes) so a pooled olSharded retains
// nothing.
func (sh *olSharded) reset() {
	sh.olRun = olRun{}
	sh.e.probe = nil
}

// runSingle handles runs whose link count (or requested shard count)
// collapses to one shard: delegate to the serial loop on this run's
// private engine.
func (sh *olSharded) runSingle(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, cl closedRun, wantStats bool) (*OpenLoopResult, []ShardStat, error) {
	olr, err := sh.e.openLoop(tmpls, src, opts, cl)
	if err != nil {
		return nil, nil, err
	}
	var stats []ShardStat
	if wantStats {
		distinct := make(map[int]struct{})
		for _, m := range tmpls {
			for _, id := range m.Route {
				distinct[id] = struct{}{}
			}
		}
		stats = []ShardStat{{
			Links:        len(distinct),
			FlitsMoved:   olr.FlitsMoved,
			DroppedFlits: olr.DroppedFlits,
			InjectedHops: olr.InjectedHops,
		}}
	}
	return olr, stats, nil
}

// fail records a run-fatal error and stops the step loop.
func (sh *olSharded) fail(err error) {
	sh.err = err
	sh.done = true
}

// advanceIdle handles global quiescence: with nothing in flight on any
// shard, leap the clock to the next arrival step and inject everything
// due there, repeating until traffic is live, the source is exhausted,
// or the next arrival lies beyond a graceful StepLimit. Runs
// single-threaded (setup or a barrier action).
func (sh *olSharded) advanceIdle() {
	for sh.live == 0 && !sh.done {
		if err := sh.repoll(); err != nil {
			sh.fail(err)
			return
		}
		if !sh.havePending {
			sh.done = true
			return
		}
		if sh.graceful && sh.pending.Step > sh.opts.StepLimit {
			// The naive model would iterate to the limit and stop; the
			// pending arrivals are never injected.
			sh.olr.TimedOut = true
			sh.done = true
			return
		}
		if sh.pending.Step > sh.step {
			sh.olr.SkippedSteps += sh.pending.Step - sh.step
			sh.step = sh.pending.Step
		}
		sh.injectDue()
		sh.lastProgress = sh.step
	}
}

// beginStep opens the next simulated step: the clock advances by one,
// a graceful StepLimit sweeps everything still in flight, and the
// livelock bound is enforced exactly as in the serial loop. Runs
// single-threaded.
func (sh *olSharded) beginStep() {
	sh.step++
	if sh.graceful && sh.step > sh.opts.StepLimit {
		sh.olr.TimedOut = true
		sh.timeoutSweep()
		sh.live, sh.inFlight = 0, 0
		sh.done = true
		return
	}
	if sh.limit > 0 {
		if sh.step > sh.limit {
			sh.fail(fmt.Errorf("netsim: no progress after %d steps", sh.limit))
		}
	} else if !sh.graceful {
		slack := stepLimit(sh.inFlight, sh.maxRoute, sh.live)
		if h := sh.horizon - sh.lastProgress; h > 0 {
			slack += h
		}
		if sh.step-sh.lastProgress > slack {
			sh.fail(fmt.Errorf("netsim: no progress after %d steps", slack))
		}
	}
}

// timeoutSweep fails every live slot at the StepLimit step, in
// message-id order (the canonical merge order; the reference model's
// sweep order). The buffered probe events flush immediately — timeout
// events follow the final StepEnd, as in the serial loop.
func (sh *olSharded) timeoutSweep() {
	e := sh.e
	limit := sh.opts.StepLimit
	sw := sh.sweep[:0]
	for s := range e.olSlotMsg {
		if e.olSlotMsg[s] >= 0 {
			sw = append(sw, int32(s))
		}
	}
	slices.SortFunc(sw, func(a, b int32) int {
		return int(e.olSlotMsg[a] - e.olSlotMsg[b])
	})
	for _, s := range sw {
		if e.olFailSlot(&sh.olRun, s, limit, -1, &sh.killEv) {
			sh.attributeDrops(s)
		}
		e.olSlotDead[s] = false
		e.olSlotMsg[s] = -1
	}
	sh.sweep = sw
	if sh.opts.Probe != nil {
		for _, ev := range sh.killEv {
			sh.opts.Probe.FlitsDropped(limit, ev.msg, ev.dropped)
			sh.opts.Probe.MsgDone(limit, ev.msg, false)
		}
	}
	sh.killEv = sh.killEv[:0]
}

// attributeDrops charges each flit-hop slot s dropped to the shard
// owning its link, for the per-shard conservation stats.
func (sh *olSharded) attributeDrops(s int32) {
	if !sh.wantStats {
		return
	}
	e := sh.e
	flits := e.olSlotFl[s]
	for p := e.olSlotOff[s]; p < e.olSlotEnd[s]; p++ {
		sh.states[sh.owner[e.olRoute[p]]].dropped += int(flits - e.olCrossed[p])
	}
}

// injectDue injects every pending arrival due at the current step,
// enqueueing each base position on the shard owning its first link.
// An exhausted source is re-polled first when a listener is attached —
// this step's failure callbacks may have scheduled reroutes. Reports
// whether at least one arrival was injected; on error sh.err is set
// and the loop stops. Runs single-threaded.
func (sh *olSharded) injectDue() bool {
	e := sh.e
	if err := sh.repoll(); err != nil {
		sh.fail(err)
		return false
	}
	injected := false
	for sh.havePending && sh.pending.Step == sh.step {
		base, err := e.olInject(&sh.olRun, sh.step)
		if err != nil {
			sh.fail(err)
			return injected
		}
		if sh.wantStats {
			t := sh.pending.Tmpl
			for p := e.off[t]; p < e.off[t+1]; p++ {
				sh.states[sh.owner[e.route[p]]].injected += sh.tmpls[t].Flits
			}
		}
		if base >= 0 {
			sh.olEnqueueShard(sh.states[sh.owner[e.olRoute[base]]], base)
		}
		injected = true
		if err := sh.advance(); err != nil {
			sh.fail(err)
			return injected
		}
	}
	return injected
}

// worker is the per-shard step loop. All workers run it in lockstep:
// the two barriers per step separate the transfer phase (producers of
// boundary flits) from the arrival phase (consumers), with kills,
// injections, and termination decided single-threaded in the barrier
// actions. The posCmp method value is built once per worker (not per
// step) so the steady state allocates nothing.
func (sh *olSharded) worker(k int) {
	posCmp := sh.e.olPosCmp
	for {
		sh.transfer(k)
		sh.bar.wait(sh.killAction)
		sh.arrive(k, posCmp)
		sh.bar.wait(sh.stepEndAction)
		if sh.done {
			return
		}
	}
}

// transfer runs the serial transfer phase over this shard's active
// links, routing each moved flit either to the local arrival batch or
// across a shard boundary. The final hop of a route is always
// processed locally: delivery bookkeeping belongs to the shard owning
// the last link.
func (sh *olSharded) transfer(k int) {
	e := sh.e
	st := sh.states[k]
	for d := range st.spill { // reclaim last step's drained batches
		st.spill[d] = st.spill[d][:0]
	}
	step := sh.step
	probe := sh.opts.Probe
	faults := sh.opts.Faults
	offset := sh.offset
	cur := st.work
	st.work = st.scratch[:0]
	st.arr = st.arr[:0]
	st.down = st.down[:0]
	for _, l := range cur {
		if e.credit[l] <= 0 {
			e.inWork[l] = false
			continue
		}
		if faults != nil {
			if dn, perm := faults.Status(e.ext[l], offset+step); dn {
				if !perm {
					st.work = append(st.work, l)
					continue
				}
				st.down = append(st.down, l)
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
		st.moved++
		if probe != nil {
			st.pbMove = append(st.pbMove, uint64(uint32(l))<<32|uint64(uint32(e.olSlotMsg[s])))
		}
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
			st.work = append(st.work, l)
		} else {
			e.inWork[l] = false
		}
		next := p + 1
		if next == e.olSlotEnd[s] || sh.owner[e.olRoute[next]] == uint8(k) {
			st.arr = append(st.arr, p)
		} else {
			st.boundary++
			d := sh.owner[e.olRoute[next]]
			if !st.out[d].push(p) {
				st.spill[d] = append(st.spill[d], p)
			}
		}
	}
	st.scratch = cur[:0]
}

// killAction is the first barrier's action: fail the sendable queued
// slots of every permanently-down link found this step, in globally
// ascending dense-link order (shards own ascending ranges, so
// iterating shards in order with each batch sorted gives the global
// order — the same canonical order the serial loop uses). Runs
// single-threaded; it may touch any shard's FIFO state.
func (sh *olSharded) killAction() {
	sh.killed = false
	if sh.opts.Faults == nil {
		return
	}
	e := sh.e
	for _, st := range sh.states[:sh.bar.n] {
		if len(st.down) == 0 {
			continue
		}
		slices.Sort(st.down)
		for _, l := range st.down {
			n := len(e.olKilled)
			e.olKillQueued(&sh.olRun, l, sh.step, &sh.killEv)
			for _, s := range e.olKilled[n:] {
				sh.attributeDrops(s)
			}
		}
	}
	sh.killed = len(e.olKilled) > 0
}

// arrive drains this shard's local arrivals, then every peer's ring
// and spill batch destined here, applying the serial arrival rules.
// Same-step enqueues sort by (message id, hop) — as raw positions until
// a slot is reused, through the slot table after — which equals the
// serial sort restricted to this shard's links.
func (sh *olSharded) arrive(k int, posCmp func(a, b int32) int) {
	st := sh.states[k]
	st.enq = st.enq[:0]
	for _, p := range st.arr {
		sh.process(st, p)
	}
	for s2, peer := range sh.states[:sh.bar.n] {
		if s2 == k {
			continue
		}
		r := peer.out[k]
		for {
			p, ok := r.pop()
			if !ok {
				break
			}
			sh.process(st, p)
		}
		for _, p := range peer.spill[k] {
			sh.process(st, p)
		}
	}
	if sh.reused {
		slices.SortFunc(st.enq, posCmp)
	} else {
		slices.Sort(st.enq)
	}
	for _, p := range st.enq {
		sh.olEnqueueShard(st, p)
	}
}

// process applies one arrived flit: delivery bookkeeping on the final
// hop (completed slots are buffered for the step-end barrier, which
// folds them in message order), otherwise buffering/credits at the
// next hop, which this shard owns.
func (sh *olSharded) process(st *shardState, p int32) {
	e := sh.e
	s := e.olPosSlot[p]
	if sh.killed && e.olSlotDead[s] {
		return // killed this step: crossing counted, arrival absorbed
	}
	flits := e.olSlotFl[s]
	next := p + 1
	if next == e.olSlotEnd[s] {
		done := e.olCrossed[p] == flits
		if sh.opts.Probe != nil {
			v := uint64(uint32(e.olSlotMsg[s])) << 1
			if done {
				v |= 1
			}
			st.pbArrv = append(st.pbArrv, v)
		}
		if done {
			st.doneSlots = append(st.doneSlots, s)
		}
		return
	}
	switch sh.opts.Mode {
	case CutThrough:
		e.olArrived[next]++
		if e.olQueued[next] {
			sh.olAddCredit(st, e.olRoute[next], 1)
		}
	case StoreAndForward:
		e.olBuffer[next]++
		if e.olBuffer[next] == flits {
			e.olArrived[next] = flits
			if e.olQueued[next] {
				sh.olAddCredit(st, e.olRoute[next], int(flits-e.olCrossed[next]))
			}
		}
	}
	if !e.olQueued[next] && e.olArrived[next] > 0 {
		st.enq = append(st.enq, next)
	}
}

// olEnqueueShard and olAddCredit mirror olEnqueue/addCredit with the
// worklist and peak-queue metric redirected to the owning shard.
func (sh *olSharded) olEnqueueShard(st *shardState, p int32) {
	e := sh.e
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
	if e.qlen[l] > st.maxQ {
		st.maxQ = e.qlen[l]
	}
	if avail := e.olArrived[p] - e.olCrossed[p]; avail > 0 {
		sh.olAddCredit(st, l, int(avail))
	}
}

func (sh *olSharded) olAddCredit(st *shardState, l int32, c int) {
	e := sh.e
	if e.credit[l] == 0 && c > 0 && !e.inWork[l] {
		e.inWork[l] = true
		st.work = append(st.work, l)
	}
	e.credit[l] += c
}

// stepEndAction is the second barrier's action: flush the canonical
// merged event streams (moves sorted by (link, message), the kill
// batch in canonical order, deliveries sorted by message id), fold and
// recycle completed slots with LatencySink/PerMessage in message-id
// order, recycle killed slots, inject arrivals due this step, close
// the step with the probe's queue sample, and decide what happens next
// — another step, a quiescent leap, or termination.
func (sh *olSharded) stepEndAction() {
	e := sh.e
	step := sh.step
	probe := sh.opts.Probe
	movedNow := 0
	for _, st := range sh.states[:sh.bar.n] {
		movedNow += st.moved
	}
	if probe != nil {
		mv := sh.mvBuf[:0]
		for _, st := range sh.states[:sh.bar.n] {
			mv = append(mv, st.pbMove...)
			st.pbMove = st.pbMove[:0]
		}
		slices.Sort(mv)
		for _, v := range mv {
			probe.FlitMoved(step, int32(uint32(v)), int32(v>>32))
		}
		sh.mvBuf = mv
		for _, ev := range sh.killEv {
			probe.FlitsDropped(step, ev.msg, ev.dropped)
			probe.MsgDone(step, ev.msg, false)
		}
		sh.killEv = sh.killEv[:0]
	}
	// Deliveries: fold the shards' completed-slot batches, emit
	// FlitDelivered/MsgDone, observe latencies, recycle. A latency sink
	// or PerMessage callback sees them in message-id order (slot order,
	// until a slot is reused); nothing else can observe the order.
	db := sh.doneBuf[:0]
	for _, st := range sh.states[:sh.bar.n] {
		db = append(db, st.doneSlots...)
		st.doneSlots = st.doneSlots[:0]
	}
	switch {
	case sh.opts.Sink == nil && sh.opts.PerMessage == nil:
	case sh.reused:
		slices.SortFunc(db, func(a, b int32) int {
			return int(e.olSlotMsg[a] - e.olSlotMsg[b])
		})
	default:
		slices.Sort(db)
	}
	if probe != nil {
		ar := sh.arBuf[:0]
		for _, st := range sh.states[:sh.bar.n] {
			ar = append(ar, st.pbArrv...)
			st.pbArrv = st.pbArrv[:0]
		}
		slices.Sort(ar)
		for _, v := range ar {
			mi := int32(v >> 1)
			probe.FlitDelivered(step, mi)
			if v&1 != 0 {
				probe.MsgDone(step, mi, true)
			}
		}
		sh.arBuf = ar
	}
	for _, s := range db {
		e.olDeliver(&sh.olRun, s, step)
	}
	sh.doneBuf = db
	// Recycle slots killed this step (their dead flags were visible to
	// the arrival phase; before injections so a same-step arrival can
	// reuse them).
	killed := len(e.olKilled) > 0
	for _, s := range e.olKilled {
		e.olSlotDead[s] = false
		e.olRelease(&sh.olRun, s)
	}
	e.olKilled = e.olKilled[:0]
	// Injections due this step enqueue after the arrival phase's
	// (message id, hop)-sorted enqueues; injected ids exceed every
	// in-flight id, so per-link FIFO order matches the serial sort.
	injected := sh.injectDue()
	if sh.err != nil {
		return
	}
	if probe != nil {
		probe.StepEnd(step, e.qlen[:sh.links])
	}
	if movedNow > sh.movedPrev || killed || injected {
		sh.lastProgress = step
	}
	sh.movedPrev = movedNow
	if sh.live == 0 {
		sh.advanceIdle()
		if sh.done {
			return
		}
	}
	sh.beginStep()
}
