package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"multipath/internal/faults"
	"multipath/internal/hypercube"
)

// flitHops returns the total injected flit-hops of a message set — the
// right-hand side of the generalized conservation invariant.
func flitHops(msgs []*Message) int {
	n := 0
	for _, m := range msgs {
		n += m.Flits * len(m.Route)
	}
	return n
}

// checkConservation asserts the fault-path invariants that must hold
// for every run: flit-hop conservation, message accounting, and
// outcome/result agreement.
func checkConservation(t *testing.T, msgs []*Message, fr *FaultResult) {
	t.Helper()
	if fr.FlitsMoved+fr.DroppedFlits != flitHops(msgs) {
		t.Errorf("conservation: moved %d + dropped %d != injected %d",
			fr.FlitsMoved, fr.DroppedFlits, flitHops(msgs))
	}
	if fr.DeliveredMsgs+fr.FailedMsgs != len(msgs) {
		t.Errorf("accounting: delivered %d + failed %d != %d msgs",
			fr.DeliveredMsgs, fr.FailedMsgs, len(msgs))
	}
	delivered, failed := 0, 0
	for i, o := range fr.Outcomes {
		if o.Delivered {
			delivered++
			if o.FailedLink != -1 {
				t.Errorf("msg %d: delivered but blames link %d", i, o.FailedLink)
			}
			if o.Step > fr.Steps {
				t.Errorf("msg %d: delivered at step %d > Steps %d", i, o.Step, fr.Steps)
			}
		} else {
			failed++
			if o.Step < 1 || o.Step > fr.Steps {
				t.Errorf("msg %d: failed at step %d outside [1, %d]", i, o.Step, fr.Steps)
			}
		}
	}
	if delivered != fr.DeliveredMsgs || failed != fr.FailedMsgs {
		t.Errorf("outcomes count %d/%d vs result %d/%d",
			delivered, failed, fr.DeliveredMsgs, fr.FailedMsgs)
	}
}

// The fault-aware path with no schedule (nil and explicitly empty)
// must be bit-identical to Simulate — same Result struct — on
// contended permutation traffic in both buffering modes.
func TestSimulateFaultsFaultFreeBitIdentical(t *testing.T) {
	q := hypercube.New(6)
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(q.Nodes())
	for _, flits := range []int{1, 7, 32} {
		msgs := permMessages(q, perm, flits)
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			want, err := Simulate(msgs, mode)
			if err != nil {
				t.Fatal(err)
			}
			for name, opts := range map[string]FaultOpts{
				"nil":   {},
				"empty": {Faults: faults.NewSchedule()},
			} {
				fr, err := SimulateFaults(msgs, mode, opts)
				if err != nil {
					t.Fatalf("%s/%v/M=%d: %v", name, mode, flits, err)
				}
				if !reflect.DeepEqual(&fr.Result, want) {
					t.Errorf("%s/%v/M=%d: fault path %+v != engine %+v",
						name, mode, flits, fr.Result, *want)
				}
				if fr.TimedOut || fr.FailedMsgs != 0 || fr.DroppedFlits != 0 {
					t.Errorf("%s/%v/M=%d: phantom faults: %+v", name, mode, flits, fr)
				}
				checkConservation(t, msgs, fr)
			}
		}
	}
}

// A message heading for a permanently dead link fails exactly when its
// flits first contend for that link, with the link blamed and every
// unmoved flit-hop dropped.
func TestPermanentFaultKillsMessage(t *testing.T) {
	const F = 5
	msgs := []*Message{{Route: []int{0, 1, 2}, Flits: F}}
	sched := faults.NewSchedule().FailLink(1, 1)
	fr, err := SimulateFaults(msgs, StoreAndForward, FaultOpts{Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	o := fr.Outcomes[0]
	if o.Delivered || o.FailedLink != 1 {
		t.Fatalf("outcome %+v, want failure blamed on link 1", o)
	}
	// Store-and-forward: the message fully buffers past link 0 in F
	// steps; its request on link 1 becomes sendable at step F+1 — the
	// first step it would cross the dead link.
	if o.Step != F+1 {
		t.Errorf("failed at step %d, want %d", o.Step, F+1)
	}
	if fr.FlitsMoved != F || fr.DroppedFlits != 2*F {
		t.Errorf("moved %d dropped %d, want %d / %d", fr.FlitsMoved, fr.DroppedFlits, F, 2*F)
	}
	checkConservation(t, msgs, fr)

	// Same setup, first hop dead: killed at step 1 before moving
	// anything.
	sched0 := faults.NewSchedule().FailLink(0, 1)
	fr0, err := SimulateFaults(msgs, StoreAndForward, FaultOpts{Faults: sched0})
	if err != nil {
		t.Fatal(err)
	}
	if fr0.Outcomes[0].Step != 1 || fr0.FlitsMoved != 0 || fr0.DroppedFlits != 3*F {
		t.Errorf("first-hop kill: %+v moved %d dropped %d", fr0.Outcomes[0], fr0.FlitsMoved, fr0.DroppedFlits)
	}
	checkConservation(t, msgs, fr0)
}

// A transient outage delays delivery instead of killing: the message
// waits out the window and arrives late, and nothing is dropped.
func TestTransientFaultDelays(t *testing.T) {
	const F = 4
	msgs := []*Message{{Route: []int{0, 1}, Flits: F}}
	base, err := SimulateFaults(msgs, CutThrough, FaultOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Down for steps 1..9, up from step 10.
	sched := faults.NewSchedule().FailLinkTransient(0, 1, 10)
	fr, err := SimulateFaults(msgs, CutThrough, FaultOpts{Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Outcomes[0].Delivered || fr.FailedMsgs != 0 || fr.DroppedFlits != 0 {
		t.Fatalf("transient outage killed the message: %+v", fr)
	}
	if want := base.Steps + 9; fr.Steps != want {
		t.Errorf("steps %d, want %d (base %d + 9 blocked steps)", fr.Steps, want, base.Steps)
	}
	checkConservation(t, msgs, fr)
}

// Faults on links no route crosses must not change anything — the
// "healthy messages unaffected by faults elsewhere" invariant.
func TestFaultsElsewhereChangeNothing(t *testing.T) {
	q := hypercube.New(5)
	rng := rand.New(rand.NewSource(8))
	perm := rng.Perm(q.Nodes())
	msgs := permMessages(q, perm, 9)
	used := make(map[int]bool)
	for _, m := range msgs {
		for _, id := range m.Route {
			used[id] = true
		}
	}
	sched := faults.NewSchedule()
	added := 0
	for id := 0; added < 20 && id < q.DirectedEdges(); id++ {
		if !used[id] {
			sched.FailLink(id, 1)
			sched.FailLinkTransient(id, 3, 7)
			added++
		}
	}
	if added == 0 {
		t.Skip("every link in use")
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		clean, err := SimulateFaults(msgs, mode, FaultOpts{})
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := SimulateFaults(msgs, mode, FaultOpts{Faults: sched})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(clean, faulty) {
			t.Errorf("%v: faults on unused links changed the run", mode)
		}
	}
}

// Messages sharing no faulty link still deliver when another message
// is killed mid-run, and the killed message's flits stop contending.
func TestMidRunKillLeavesOthersDelivered(t *testing.T) {
	msgs := []*Message{
		{Route: []int{0, 1, 2}, Flits: 6}, // killed at link 1
		{Route: []int{0, 3, 4}, Flits: 6}, // shares only healthy link 0
		{Route: []int{5}, Flits: 2},       // disjoint
	}
	sched := faults.NewSchedule().FailLink(1, 1)
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		fr, err := SimulateFaults(msgs, mode, FaultOpts{Faults: sched})
		if err != nil {
			t.Fatal(err)
		}
		if fr.Outcomes[0].Delivered || fr.Outcomes[0].FailedLink != 1 {
			t.Errorf("%v: msg 0 outcome %+v", mode, fr.Outcomes[0])
		}
		if !fr.Outcomes[1].Delivered || !fr.Outcomes[2].Delivered {
			t.Errorf("%v: healthy messages not delivered: %+v", mode, fr.Outcomes)
		}
		if fr.DeliveredMsgs != 2 || fr.FailedMsgs != 1 {
			t.Errorf("%v: %d/%d delivered/failed", mode, fr.DeliveredMsgs, fr.FailedMsgs)
		}
		checkConservation(t, msgs, fr)
	}
}

// A node fault (all incident links down) expressed through the
// schedule kills exactly the messages routed through that node.
func TestNodeFaultThroughSchedule(t *testing.T) {
	q := hypercube.New(4)
	v := hypercube.Node(3)
	sched := faults.NewSchedule().FailNode(q, v, 1)
	src, dst := hypercube.Node(0), hypercube.Node(15)
	through := ecubeRoute(q, src, dst) // e-cube from 0 ascends via node 3
	crosses := false
	for _, id := range through {
		if down, _ := sched.Status(id, 1); down {
			crosses = true
		}
	}
	if !crosses {
		t.Fatal("test route does not cross the failed node")
	}
	avoid := ecubeRoute(q, hypercube.Node(4), hypercube.Node(12))
	for _, id := range avoid {
		if down, _ := sched.Status(id, 1); down {
			t.Fatal("avoid route crosses the failed node")
		}
	}
	msgs := []*Message{
		{Route: through, Flits: 3},
		{Route: avoid, Flits: 3},
	}
	fr, err := SimulateFaults(msgs, CutThrough, FaultOpts{Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Outcomes[0].Delivered || !fr.Outcomes[1].Delivered {
		t.Errorf("outcomes %+v", fr.Outcomes)
	}
	checkConservation(t, msgs, fr)
}

// StepLimit turns the livelock bound into a graceful timeout: the run
// ends at the limit with unfinished messages failed (no blamed link)
// and conservation intact.
func TestStepLimitTimeout(t *testing.T) {
	msgs := []*Message{
		{Route: []int{0, 1}, Flits: 4},
		{Route: []int{2}, Flits: 2},
	}
	// Link 0 is down transiently far beyond the limit; message 0 can
	// never finish in 6 steps, message 1 delivers at step 2.
	sched := faults.NewSchedule().FailLinkTransient(0, 1, 1000)
	fr, err := SimulateFaults(msgs, CutThrough, FaultOpts{Faults: sched, StepLimit: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !fr.TimedOut || fr.Steps != 6 {
		t.Fatalf("TimedOut=%v Steps=%d, want timeout at 6", fr.TimedOut, fr.Steps)
	}
	if fr.Outcomes[0].Delivered || fr.Outcomes[0].FailedLink != -1 || fr.Outcomes[0].Step != 6 {
		t.Errorf("msg 0 outcome %+v, want timeout failure at step 6", fr.Outcomes[0])
	}
	if !fr.Outcomes[1].Delivered {
		t.Errorf("msg 1 outcome %+v, want delivered", fr.Outcomes[1])
	}
	checkConservation(t, msgs, fr)

	// Without a StepLimit the same schedule is finite-horizon, so the
	// run completes (slowly) instead of timing out.
	fr2, err := SimulateFaults(msgs, CutThrough, FaultOpts{Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if fr2.TimedOut || fr2.FailedMsgs != 0 {
		t.Errorf("finite-horizon run failed: %+v", fr2)
	}
}

// Unbounded schedules (per-step Bernoulli) require an explicit
// StepLimit; with one they run and stay deterministic.
func TestPerStepModelNeedsLimit(t *testing.T) {
	msgs := []*Message{{Route: []int{0, 1}, Flits: 2}}
	m := &faults.PerStep{P: 0.2, Seed: 5}
	if _, err := SimulateFaults(msgs, CutThrough, FaultOpts{Faults: m}); err == nil {
		t.Fatal("unbounded schedule accepted without StepLimit")
	}
	a, err := SimulateFaults(msgs, CutThrough, FaultOpts{Faults: m, StepLimit: 500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateFaults(msgs, CutThrough, FaultOpts{Faults: m, StepLimit: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("per-step runs differ: %+v vs %+v", a, b)
	}
	checkConservation(t, msgs, a)
}

// StepOffset shifts the schedule's clock: a window at [5, 10) seen
// through offset 4 behaves exactly like a window at [1, 6).
func TestStepOffsetShiftsSchedule(t *testing.T) {
	msgs := []*Message{{Route: []int{0, 1, 2}, Flits: 3}}
	late := faults.NewSchedule().FailLinkTransient(1, 5, 10)
	early := faults.NewSchedule().FailLinkTransient(1, 1, 6)
	a, err := SimulateFaults(msgs, CutThrough, FaultOpts{Faults: late, StepOffset: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateFaults(msgs, CutThrough, FaultOpts{Faults: early})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("offset run %+v != shifted schedule %+v", a, b)
	}
}

// Adversarial burst against every route of a bundle: all messages die
// in the window; with the burst starting after delivery completes,
// nothing is lost.
func TestBurstSchedule(t *testing.T) {
	msgs := []*Message{
		{Route: []int{0, 1}, Flits: 2},
		{Route: []int{2, 3}, Flits: 2},
	}
	kill := faults.Burst([]int{0, 2}, 1, 0) // permanent burst on both first hops
	fr, err := SimulateFaults(msgs, CutThrough, FaultOpts{Faults: kill})
	if err != nil {
		t.Fatal(err)
	}
	if fr.FailedMsgs != 2 || fr.DeliveredMsgs != 0 {
		t.Errorf("burst: %d failed %d delivered", fr.FailedMsgs, fr.DeliveredMsgs)
	}
	clean, err := SimulateFaults(msgs, CutThrough, FaultOpts{})
	if err != nil {
		t.Fatal(err)
	}
	late := faults.Burst([]int{0, 2}, clean.Steps+1, 0)
	fr2, err := SimulateFaults(msgs, CutThrough, FaultOpts{Faults: late})
	if err != nil {
		t.Fatal(err)
	}
	if fr2.FailedMsgs != 0 || fr2.Steps != clean.Steps {
		t.Errorf("post-completion burst changed the run: %+v vs %+v", fr2.Result, clean.Result)
	}
}

// Empty routes deliver at step 0 under the fault path too.
func TestFaultPathEmptyRoutes(t *testing.T) {
	msgs := []*Message{{Route: nil, Flits: 1}, {Route: []int{4}, Flits: 1}}
	fr, err := SimulateFaults(msgs, StoreAndForward, FaultOpts{Faults: faults.Bernoulli(4, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Outcomes[0].Delivered || fr.Outcomes[0].Step != 0 {
		t.Errorf("empty route outcome %+v", fr.Outcomes[0])
	}
	// Link 4 is beyond the Bernoulli model's 4 links, so msg 1 delivers.
	if !fr.Outcomes[1].Delivered {
		t.Errorf("msg 1 outcome %+v", fr.Outcomes[1])
	}
	checkConservation(t, msgs, fr)
}

// A message crossing the same dead link twice in its route must be
// killed once with consistent accounting (routes may repeat links).
func TestRepeatedLinkKill(t *testing.T) {
	msgs := []*Message{{Route: []int{7, 8, 7}, Flits: 3}}
	sched := faults.NewSchedule().FailLink(7, 1)
	fr, err := SimulateFaults(msgs, CutThrough, FaultOpts{Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if fr.FailedMsgs != 1 || fr.Outcomes[0].FailedLink != 7 {
		t.Errorf("outcome %+v", fr.Outcomes[0])
	}
	checkConservation(t, msgs, fr)
}
