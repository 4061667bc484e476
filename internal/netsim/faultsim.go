package netsim

// LinkFaults is the fault-injection interface of the simulator. It is
// satisfied by internal/faults.Schedule and internal/faults.PerStep;
// netsim only depends on the shape, not the package, so the fault
// models stay swappable.
type LinkFaults interface {
	// Status reports whether the directed link (external id, the same
	// numbering Message.Route uses) is down at the 1-based step, and —
	// when down — whether the outage is permanent (down at every step
	// ≥ step). Permanent outages fail messages; transient ones only
	// delay them.
	Status(link, step int) (down, permanent bool)
	// Horizon returns a step after which no link changes state, or -1
	// for unbounded models (which then require an explicit StepLimit).
	Horizon() int
}

// FaultOpts configures a fault-aware simulation run.
type FaultOpts struct {
	// Faults is the link-fault oracle; nil simulates fault-free.
	Faults LinkFaults
	// StepLimit, when positive, is a per-run timeout: messages not
	// finished by then are marked failed (FailedLink -1) and the run
	// returns with TimedOut set instead of erroring. When zero, the
	// generalized livelock bound stepLimit + Horizon() applies and
	// exceeding it is a simulator bug (an error), exactly as in
	// Simulate; a Faults with unbounded horizon then returns an error
	// up front.
	StepLimit int
	// StepOffset shifts the step passed to Faults.Status, so a caller
	// running consecutive rounds (the retry transport) can keep one
	// schedule evolving across rounds: round r queries steps
	// offset+1, offset+2, ...
	StepOffset int
	// Probe, when non-nil, receives observation events for this run
	// (see probe.go). It takes precedence over a probe attached with
	// Engine.SetProbe. Attaching a probe never changes the FaultResult.
	Probe Probe
}

// Outcome is the per-message verdict of a fault-aware run.
type Outcome struct {
	// Delivered reports whether every flit reached the destination.
	Delivered bool
	// Step is the step the message finished: the delivery step of its
	// last flit (0 for empty routes), or the step it failed.
	Step int
	// FailedLink is the external id of the permanently-down link the
	// message was about to cross when it failed, or -1 when the
	// message was delivered or timed out.
	FailedLink int
}

// FaultResult extends Result with fault accounting. With a nil or
// empty schedule the embedded Result is bit-identical to Simulate's.
type FaultResult struct {
	Result
	// TimedOut reports that the run hit FaultOpts.StepLimit with
	// unfinished messages (all marked failed at that step).
	TimedOut bool
	// Outcomes has one entry per input message.
	Outcomes []Outcome
}

// SimulateFaults runs the synchronous simulation under a link-fault
// schedule. Semantics:
//
//   - A down link carries no flits while down.
//   - A message fails at the first step it has a sendable flit queued
//     on a permanently-down link (it is doomed: the link will never
//     recover). Its remaining flit-hops are dropped and its queued
//     requests leave their FIFOs, so it stops contending; everything
//     it already moved stays counted in FlitsMoved.
//   - A transient outage only delays: queued messages wait and resume
//     when the link recovers, which shows up as latency, not loss.
//   - Faults on links that no route crosses change nothing.
//
// The conservation invariant generalizes to
//
//	FlitsMoved + DroppedFlits == Σ flits·len(route)
//
// (injected flit-hops are either moved or dropped), and
// DeliveredMsgs + FailedMsgs == len(msgs).
//
// Like Simulate, this entry point borrows a pooled Engine and is safe
// for concurrent use.
func SimulateFaults(msgs []*Message, mode Mode, opts FaultOpts) (*FaultResult, error) {
	e := enginePool.Get().(*Engine)
	fr, err := e.SimulateFaults(msgs, mode, opts)
	enginePool.Put(e)
	return fr, err
}

// SimulateFaults is the Engine-level fault-aware simulate path; see
// the package-level SimulateFaults for the semantics. It is the step
// loop of SimulateOpenLoop with every message arriving at step 0 and
// each message's verdict recorded in Outcomes. With a nil schedule and
// zero StepLimit the run is bit-identical to Simulate (same
// arbitration, same Result), guarded by regression and fuzz tests.
func (e *Engine) SimulateFaults(msgs []*Message, mode Mode, opts FaultOpts) (*FaultResult, error) {
	fr := &FaultResult{Outcomes: make([]Outcome, len(msgs))}
	olr, err := e.openLoop(msgs, nil, closedOpts(mode, opts), closedRun{burst: true, outcomes: fr.Outcomes, offset: opts.StepOffset})
	if err != nil {
		return nil, err
	}
	fr.Result = olr.Result
	fr.TimedOut = olr.TimedOut
	return fr, nil
}
