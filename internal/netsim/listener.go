package netsim

// FaultListener is the failure-notification hook of the open-loop
// engines: a synchronous callback sink for link deaths and the message
// failures they cause, registered through OpenLoopOpts.Listener. It is
// the reactive half of the self-healing transport (internal/selfheal):
// a listener that also serves as the run's ArrivalSource can respond to
// a failure by scheduling a *new* arrival — a reroute of the failed
// message onto a surviving sibling path — and the engine will pick it
// up, because with a listener attached the source is re-polled after
// exhaustion at every injection point (see ArrivalSource).
//
// The contract follows the Probe discipline exactly: every call site is
// guarded by a nil-check on OpenLoopOpts.Listener, so a listener-off
// run is bit-identical to the pre-listener engine and pays only
// untaken branches. Events fire in a canonical order that does not
// depend on the engine's internal worklist order, so a replayed run
// repeats its event stream exactly:
//
//   - Within a step, LinkDown events fire in ascending external link
//     id order, each immediately followed by the MsgFailed events of
//     the messages it killed (ascending queue order on that link).
//   - All of a step's failure events fire after its transfer phase and
//     before its deliveries and injections — so a reroute scheduled
//     from a callback for step t+k is seen by the engine before any
//     step-t arrival is pulled.
//
// Listeners are called synchronously from the simulation loop; they
// must not call back into the running engine.
type FaultListener interface {
	// LinkDown reports that the fault schedule's permanent outage of a
	// link was observed at step: traffic queued on the link tried to
	// cross and died. link is the external id (Message.Route values).
	// The engine only sees faults through traffic, so LinkDown fires
	// when a down link has sendable queued flits — which can happen at
	// several steps for the same link if later arrivals queue on it —
	// not at the schedule's nominal failure step. Transient outages
	// (down but not permanent) only delay traffic and are not reported.
	LinkDown(step int, link int, permanent bool)
	// MsgFailed reports one doomed message: msg (the arrival index)
	// was failed at step because link (external id) went permanently
	// down under it, or — when link is -1 — because the run hit
	// OpenLoopOpts.StepLimit with the message still in flight. It
	// fires exactly where PerMessage reports delivered=false, with the
	// blamed link attached. StepLimit sweeps report messages in
	// ascending message id order.
	MsgFailed(step int, msg int32, link int)
}
