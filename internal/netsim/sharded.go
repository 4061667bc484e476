package netsim

import "sync"

// This file is the partitioned ("sharded") engine's shared machinery
// and its closed-loop entry points. The dense contiguous link-id space
// of a run is split into per-shard ranges, each owned by one worker
// goroutine that keeps the intrusive FIFOs, credit counters, and
// active-link worklist of the serial step loop for exactly its links.
// A simulation step becomes
//
//	transfer(k) ∥ …  →  [barrier: kills]  →  arrive(k) ∥ …  →  [barrier: step end]
//
// Within the transfer phase a shard only reads and writes the state of
// links it owns (per-link transfer decisions depend on nothing else),
// plus the position rows of the flits it moves — and a position's link
// is owned by exactly one shard, so position rows have a single writer
// too. A moved flit whose next hop's link belongs to another shard is
// a boundary flit: it is pushed into the bounded SPSC ring for that
// (producer, consumer) shard pair (overflow goes to an unbounded
// producer-owned spill slice) and drained by the owning shard in the
// arrival phase, after the barrier. The arrival phase then mutates
// only consumer-owned link state, because a position's enqueue target
// is its own link.
//
// The two barrier actions run single-threaded in whichever worker
// arrives last: the kill action replays permanently-down links in
// globally ascending dense-id order (the canonical order of the serial
// loop's deferred kill phase), and the step-end action folds per-shard
// deliveries, flushes buffered probe events in deterministic order,
// injects due arrivals, and decides termination. Everything global is
// written only there, which is what makes the sharded engine
// *bit-identical* to the serial one — same Result, same FaultResult,
// same Probe-visible distributions — rather than merely statistically
// equivalent. The step loop itself lives in openloop_sharded.go; the
// closed-loop entry points below run it with every message arriving at
// step 0, exactly as the serial closed-loop entry points run the serial
// loop. TestSimulateShardedEquivalence and FuzzSimulateSharded enforce
// the equivalence over the fuzz corpus.
//
// Determinism argument, in brief:
//   - FIFO order: same-step enqueues on a link are sorted in (message
//     id, hop) order. All enqueues targeting link l happen in owner(l)'s
//     arrival phase, so a per-shard sort equals the global sort's
//     per-link order.
//   - Transfer decisions: per link, a function of that link's FIFO and
//     credits only; worklist order within a step is immaterial.
//   - Kills: canonical ascending-link order at a barrier, on a kill set
//     that is invariant across the transfer phase (down links move
//     nothing, so their sendable sets cannot change mid-phase).
//   - Probes: per-shard event buffers are merged at the step-end
//     barrier sorted by link id (moves) and message id (deliveries); a
//     link moves at most one flit per step and a message delivers at
//     most one flit per step, so the sort keys are unique.

// SimulateSharded is Simulate partitioned across shards worker
// goroutines. Results are bit-identical to Simulate for every shard
// count; shards <= 1 takes the serial path untouched.
func SimulateSharded(msgs []*Message, mode Mode, shards int) (*Result, error) {
	if shards <= 1 {
		return Simulate(msgs, mode)
	}
	olr, err := simulateClosedSharded(msgs, OpenLoopOpts{Mode: mode}, closedRun{burst: true}, shards)
	if err != nil {
		return nil, err
	}
	return &olr.Result, nil
}

// SimulateShardedProbed is SimulateSharded with an observation probe:
// the per-shard event buffers are merged at each step barrier in
// deterministic link-id (moves) and message-id (deliveries) order, so
// p observes one canonical stream equivalent to the serial one.
func SimulateShardedProbed(msgs []*Message, mode Mode, shards int, p Probe) (*Result, error) {
	if shards <= 1 {
		return SimulateProbed(msgs, mode, p)
	}
	olr, err := simulateClosedSharded(msgs, OpenLoopOpts{Mode: mode, Probe: p}, closedRun{burst: true}, shards)
	if err != nil {
		return nil, err
	}
	return &olr.Result, nil
}

// SimulateFaultsSharded is SimulateFaults partitioned across shards
// workers. Each shard evaluates the fault status of its own links
// (fault schedules are per-step-deterministic, so no coordination is
// needed); the kills themselves run at the step barrier in ascending
// link order, matching the serial loop's canonical kill order, so the
// FaultResult is bit-identical for every shard count. FaultOpts.Probe
// is honored as a merged probe.
func SimulateFaultsSharded(msgs []*Message, mode Mode, opts FaultOpts, shards int) (*FaultResult, error) {
	if shards <= 1 {
		return SimulateFaults(msgs, mode, opts)
	}
	fr := &FaultResult{Outcomes: make([]Outcome, len(msgs))}
	olr, err := simulateClosedSharded(msgs, closedOpts(mode, opts), closedRun{burst: true, outcomes: fr.Outcomes, offset: opts.StepOffset}, shards)
	if err != nil {
		return nil, err
	}
	fr.Result = olr.Result
	fr.TimedOut = olr.TimedOut
	return fr, nil
}

// simulateClosedSharded runs a closed-loop burst on a pooled sharded
// engine.
func simulateClosedSharded(msgs []*Message, opts OpenLoopOpts, cl closedRun, shards int) (*OpenLoopResult, error) {
	sh := olShardedPool.Get().(*olSharded)
	olr, _, err := sh.run(msgs, nil, opts, cl, shards, false)
	olShardedPool.Put(sh)
	return olr, err
}

// ShardStat is the per-shard accounting of one sharded run, used by
// balance reports and the per-shard conservation invariant
//
//	FlitsMoved + DroppedFlits == InjectedHops
//
// (every flit-hop injected on a shard's links is eventually either
// moved by that shard or dropped with its message).
type ShardStat struct {
	// Links is the number of dense link ids the shard owns.
	Links int
	// FlitsMoved counts flits moved across this shard's links.
	FlitsMoved int
	// DroppedFlits counts flit-hops on this shard's links dropped by
	// message failures (fault path only).
	DroppedFlits int
	// InjectedHops is Σ flits over this shard's route positions: the
	// flit-hops this shard's links were asked to carry.
	InjectedHops int
	// BoundaryOut counts flits this shard moved whose next hop belongs
	// to another shard (handed over through a ring or spill).
	BoundaryOut int
}

// killEvent buffers one message failure's probe events between the
// kill barrier and the step-end probe flush.
type killEvent struct {
	msg     int32
	dropped int
}

// shardState is the worker-local state of one shard. The shard owns
// dense links [lo, hi) and is the only goroutine that touches their
// FIFO heads/tails, credits, queue lengths, and worklist outside the
// single-threaded barrier actions.
type shardState struct {
	lo, hi  int32
	work    []int32 // active-link worklist (this shard's links only)
	scratch []int32 // worklist double buffer
	arr     []int32 // local arrivals of the current step
	enq     []int32 // positions to enqueue this step (own links only)
	down    []int32 // permanently-down links found this transfer phase

	out   []*spscRing // boundary rings to each destination shard
	spill [][]int32   // ring-overflow batches to each destination shard

	// Probe event buffers for the merged-probe path: packed moves
	// (link<<32|msg) and deliveries (msg<<1|completed), flushed sorted
	// at the step-end barrier.
	pbMove []uint64
	pbArrv []uint64

	// doneSlots buffers the slots whose message completed on this
	// shard's links this step; the step-end barrier folds them in
	// message-id order (the canonical merge order for LatencySink and
	// PerMessage) and recycles them.
	doneSlots []int32

	moved    int
	maxQ     int
	injected int
	dropped  int
	boundary int
}

// stepBarrier is a reusable phase barrier for the shard workers: the
// last arriver runs the phase's action single-threaded under the
// barrier lock, then releases everyone into the next phase. The lock
// hand-off orders every pre-barrier write before every post-barrier
// read, which is the memory-model backbone of the shared flat arrays.
type stepBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func (b *stepBarrier) init(n int) {
	b.n = n
	b.count = 0
	b.gen = 0
	if b.cond == nil {
		b.cond = sync.NewCond(&b.mu)
	}
}

// wait blocks until all n workers have arrived; the last runs action.
func (b *stepBarrier) wait(action func()) {
	b.mu.Lock()
	g := b.gen
	b.count++
	if b.count == b.n {
		action()
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for b.gen == g {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
