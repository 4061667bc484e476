package transport

import (
	"reflect"
	"testing"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/faults"
	"multipath/internal/netsim"
)

func theorem1(t *testing.T) *core.Embedding {
	t.Helper()
	e, err := cycles.Theorem1(6)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func width(e *core.Embedding) int { return len(e.Paths[0]) }

// Fault-free, both strategies deliver everything in one round and
// report a positive latency bounded by the run's clock.
func TestFaultFreeDelivery(t *testing.T) {
	e := theorem1(t)
	for _, strat := range []Strategy{SinglePath, IDA} {
		rep, err := SendAll(e, Config{
			Strategy: strat, Mode: netsim.CutThrough, Flits: 8, K: 2,
		})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if rep.DeliveredFraction != 1 || rep.DeliveredEdges != rep.Edges {
			t.Fatalf("%v: not all delivered: %+v", strat, rep)
		}
		if rep.Rounds != 1 {
			t.Fatalf("%v: wanted 1 round, got %d", strat, rep.Rounds)
		}
		if rep.MeanLatency <= 0 || rep.TotalSteps <= 0 {
			t.Fatalf("%v: degenerate clock: %+v", strat, rep)
		}
		for _, er := range rep.EdgeReports {
			if !er.Delivered || er.Latency < 1 || er.Latency > rep.TotalSteps {
				t.Fatalf("%v: bad edge report %+v (TotalSteps %d)", strat, er, rep.TotalSteps)
			}
			if len(er.FailedPaths) != 0 {
				t.Fatalf("%v: fault-free run blamed paths: %+v", strat, er)
			}
		}
		if rep.PiecesSent != rep.PiecesDelivered {
			t.Fatalf("%v: lost pieces without faults: %+v", strat, rep)
		}
	}
}

// Same configuration twice gives identical reports.
func TestDeterministic(t *testing.T) {
	e := theorem1(t)
	sched := faults.Bernoulli(e.Host.DirectedEdges(), 0.05, 11)
	cfg := Config{
		Strategy: IDA, Mode: netsim.CutThrough, Flits: 6, K: 2,
		MaxRetries: 2, Faults: sched,
	}
	a, err := SendAll(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SendAll(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// A permanent fault on edge 0's first path: SinglePath needs a retry
// round to fail over; with no retries it loses the edge.
func TestSinglePathFailover(t *testing.T) {
	e := theorem1(t)
	ids, err := e.Host.PathEdgeIDs(e.Paths[0][0])
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.NewSchedule()
	sched.FailLink(ids[0], 1)

	noRetry, err := SendEdges(e, []int{0}, Config{
		Strategy: SinglePath, Mode: netsim.StoreAndForward, Flits: 4, Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if noRetry.DeliveredEdges != 0 {
		t.Fatalf("delivered without retries across a dead first path: %+v", noRetry)
	}

	rep, err := SendEdges(e, []int{0}, Config{
		Strategy: SinglePath, Mode: netsim.StoreAndForward, Flits: 4,
		MaxRetries: 2, Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	er := rep.EdgeReports[0]
	if !er.Delivered || er.Rounds != 2 {
		t.Fatalf("wanted failover delivery in round 2: %+v", er)
	}
	if len(er.FailedPaths) != 1 || er.FailedPaths[0] != 0 {
		t.Fatalf("wanted path 0 blamed: %+v", er)
	}
}

// IDA with k < width absorbs a dead path with no retry round at all.
func TestIDAToleratesPathLoss(t *testing.T) {
	e := theorem1(t)
	w := width(e)
	if w < 2 {
		t.Fatalf("need width ≥ 2, got %d", w)
	}
	ids, err := e.Host.PathEdgeIDs(e.Paths[0][0])
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.NewSchedule()
	sched.FailLink(ids[0], 1)

	rep, err := SendEdges(e, []int{0}, Config{
		Strategy: IDA, Mode: netsim.CutThrough, Flits: 8, K: w - 1, Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	er := rep.EdgeReports[0]
	if !er.Delivered || er.Rounds != 1 {
		t.Fatalf("wanted zero-retry IDA delivery: %+v", er)
	}
	if er.PiecesDelivered != w-1 || len(er.FailedPaths) != 1 {
		t.Fatalf("wanted exactly one lost piece: %+v", er)
	}
}

// IDA retry rounds refill missing pieces over surviving paths when
// more paths die than k-of-n slack covers.
func TestIDARetryRefillsPieces(t *testing.T) {
	e := theorem1(t)
	w := width(e)
	if w < 2 {
		t.Fatalf("need width ≥ 2, got %d", w)
	}
	// Kill every path but the last.
	sched := faults.NewSchedule()
	for p := 0; p < w-1; p++ {
		ids, err := e.Host.PathEdgeIDs(e.Paths[0][p])
		if err != nil {
			t.Fatal(err)
		}
		sched.FailLink(ids[0], 1)
	}
	cfg := Config{
		Strategy: IDA, Mode: netsim.CutThrough, Flits: 8, K: 2, Faults: sched,
	}
	noRetry, err := SendEdges(e, []int{0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if noRetry.DeliveredEdges != 0 {
		t.Fatalf("k=2 cannot survive round 1 with one live path: %+v", noRetry)
	}
	cfg.MaxRetries = 2
	rep, err := SendEdges(e, []int{0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	er := rep.EdgeReports[0]
	if !er.Delivered || er.Rounds < 2 {
		t.Fatalf("wanted retry delivery over the surviving path: %+v", er)
	}
	if er.PiecesDelivered < 2 {
		t.Fatalf("wanted ≥ k pieces through: %+v", er)
	}
}

// BundleBurst on one edge's whole path bundle sinks that edge no
// matter the retries, and leaves the others untouched.
func TestBundleBurstKillsEdge(t *testing.T) {
	e := theorem1(t)
	sched, err := BundleBurst(e, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SendAll(e, Config{
		Strategy: IDA, Mode: netsim.CutThrough, Flits: 4, K: 2,
		MaxRetries: 3, Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range rep.EdgeReports {
		if er.Edge == 3 {
			if er.Delivered {
				t.Fatalf("edge 3 survived a full bundle burst: %+v", er)
			}
			continue
		}
		// Bundles of different guest edges share host links in the
		// Theorem 1 embedding, so neighbours may lose pieces to the
		// burst — but k-of-n slack plus retries must still deliver.
		if !er.Delivered {
			t.Fatalf("edge %d collateral failure: %+v", er.Edge, er)
		}
	}
	if rep.DeliveredEdges != rep.Edges-1 {
		t.Fatalf("wanted exactly one failed edge: %+v", rep)
	}
}

// A transient outage on the single path delays delivery but needs no
// failover: latency grows, the path is never blamed.
func TestTransientOutageDelays(t *testing.T) {
	e := theorem1(t)
	ids, err := e.Host.PathEdgeIDs(e.Paths[0][0])
	if err != nil {
		t.Fatal(err)
	}
	clean, err := SendEdges(e, []int{0}, Config{
		Strategy: SinglePath, Mode: netsim.StoreAndForward, Flits: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.NewSchedule()
	sched.FailLinkTransient(ids[0], 1, 8)
	rep, err := SendEdges(e, []int{0}, Config{
		Strategy: SinglePath, Mode: netsim.StoreAndForward, Flits: 3, Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	er := rep.EdgeReports[0]
	if !er.Delivered || er.Rounds != 1 || len(er.FailedPaths) != 0 {
		t.Fatalf("transient outage should only delay: %+v", er)
	}
	if er.Latency <= clean.EdgeReports[0].Latency {
		t.Fatalf("latency did not grow: %d vs clean %d",
			er.Latency, clean.EdgeReports[0].Latency)
	}
}

// The acceptance criterion: per seed, delivered fraction is monotone
// non-increasing in the link-fault probability, for single-path and
// for width-d IDA. faults.Bernoulli couples the draws (one uniform per
// link, thresholded by p), so the faulty sets are nested across the
// sweep and the transport must never deliver less at lower p.
func TestDeliveredFractionMonotoneInFaultProbability(t *testing.T) {
	e := theorem1(t)
	w := width(e)
	probs := []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4}
	for _, strat := range []Strategy{SinglePath, IDA} {
		for seed := int64(1); seed <= 5; seed++ {
			prev := 2.0
			for _, p := range probs {
				sched := faults.Bernoulli(e.Host.DirectedEdges(), p, seed)
				rep, err := SendAll(e, Config{
					Strategy: strat, Mode: netsim.CutThrough, Flits: 4,
					K: w - 1, MaxRetries: 1, Faults: sched,
				})
				if err != nil {
					t.Fatalf("%v seed %d p %g: %v", strat, seed, p, err)
				}
				if rep.DeliveredFraction > prev {
					t.Fatalf("%v seed %d: delivered fraction rose at p=%g: %g > %g",
						strat, seed, p, rep.DeliveredFraction, prev)
				}
				prev = rep.DeliveredFraction
			}
		}
	}
}

// Unbounded fault models need an explicit per-round StepLimit; with
// one, the transport times out gracefully instead of erroring.
func TestPerStepModelNeedsStepLimit(t *testing.T) {
	e := theorem1(t)
	model := &faults.PerStep{P: 1, Seed: 3}
	_, err := SendEdges(e, []int{0}, Config{
		Strategy: SinglePath, Mode: netsim.CutThrough, Faults: model,
	})
	if err == nil {
		t.Fatal("wanted an error for an unbounded model without StepLimit")
	}
	rep, err := SendEdges(e, []int{0}, Config{
		Strategy: SinglePath, Mode: netsim.CutThrough, Faults: model,
		StepLimit: 32, MaxRetries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeliveredEdges != 0 {
		t.Fatalf("p=1 per-step model delivered: %+v", rep)
	}
	if rep.TotalSteps != 2*32 {
		t.Fatalf("wanted two timed-out rounds of 32 steps, got %d", rep.TotalSteps)
	}
}

// RoundStats is the per-round series behind the aggregates: one entry
// per round actually run, offsets forming the absolute clock, and the
// -1 latency sentinel on rounds that delivered nothing.
func TestRoundStats(t *testing.T) {
	e := theorem1(t)
	ids, err := e.Host.PathEdgeIDs(e.Paths[0][0])
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.NewSchedule()
	sched.FailLink(ids[0], 1)
	rep, err := SendEdges(e, []int{0}, Config{
		Strategy: SinglePath, Mode: netsim.StoreAndForward, Flits: 4,
		MaxRetries: 2, Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RoundStats) != rep.Rounds {
		t.Fatalf("%d round stats for %d rounds", len(rep.RoundStats), rep.Rounds)
	}
	steps, offset := 0, 0
	for i, rs := range rep.RoundStats {
		if rs.Round != i+1 {
			t.Errorf("round stat %d numbered %d", i, rs.Round)
		}
		if rs.Offset != offset {
			t.Errorf("round %d: offset %d, want %d", rs.Round, rs.Offset, offset)
		}
		if rs.Delivered == 0 && rs.MeanLatency != -1 {
			t.Errorf("round %d: nothing delivered but mean latency %g, want -1", rs.Round, rs.MeanLatency)
		}
		if rs.Delivered > 0 && (rs.MeanLatency <= 0 || rs.MeanLatency > float64(rs.Steps)) {
			t.Errorf("round %d: mean latency %g outside (0, %d]", rs.Round, rs.MeanLatency, rs.Steps)
		}
		steps += rs.Steps
		offset += rs.Steps
	}
	if steps != rep.TotalSteps {
		t.Errorf("round steps sum to %d, TotalSteps %d", steps, rep.TotalSteps)
	}
	// The dead first path makes round 1 deliver nothing; failover
	// delivers the piece in round 2.
	if rep.RoundStats[0].Delivered != 0 || rep.RoundStats[1].Delivered != 1 {
		t.Errorf("unexpected per-round deliveries: %+v", rep.RoundStats)
	}
}

// With nothing delivered, the aggregate latency is the documented -1
// "no data" sentinel rather than a latency-like 0.
func TestMeanLatencyNoDataSentinel(t *testing.T) {
	e := theorem1(t)
	sched, err := BundleBurst(e, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SendEdges(e, []int{0}, Config{
		Strategy: SinglePath, Mode: netsim.CutThrough, Flits: 2,
		MaxRetries: 2, Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeliveredEdges != 0 {
		t.Fatalf("bundle burst did not sink the edge: %+v", rep)
	}
	if rep.MeanLatency != -1 {
		t.Errorf("MeanLatency = %g with nothing delivered, want -1", rep.MeanLatency)
	}
}

// countingProbe counts rounds and deliveries through Config.Probe.
type countingProbe struct {
	runs, delivered, failed int
}

func (c *countingProbe) BeginRun(netsim.RunInfo)      { c.runs++ }
func (c *countingProbe) StepEnd(int, []int)           {}
func (c *countingProbe) FlitMoved(int, int32, int32)  {}
func (c *countingProbe) FlitDelivered(int, int32)     {}
func (c *countingProbe) FlitsDropped(int, int32, int) {}
func (c *countingProbe) MsgDone(step int, msg int32, ok bool) {
	if ok {
		c.delivered++
	} else {
		c.failed++
	}
}

// Config.Probe observes every round without changing the Report.
func TestProbePassthrough(t *testing.T) {
	e := theorem1(t)
	sched := faults.Bernoulli(e.Host.DirectedEdges(), 0.05, 11)
	cfg := Config{
		Strategy: IDA, Mode: netsim.CutThrough, Flits: 6, K: 2,
		MaxRetries: 2, Faults: sched,
	}
	bare, err := SendAll(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := &countingProbe{}
	cfg.Probe = probe
	probed, err := SendAll(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, probed) {
		t.Fatalf("probe changed report:\nbare   %+v\nprobed %+v", bare, probed)
	}
	if probe.runs != probed.Rounds {
		t.Errorf("probe saw %d runs, report ran %d rounds", probe.runs, probed.Rounds)
	}
	if probe.delivered != probed.PiecesDelivered {
		t.Errorf("probe saw %d deliveries, report %d", probe.delivered, probed.PiecesDelivered)
	}
	if probe.delivered+probe.failed != probed.PiecesSent {
		t.Errorf("probe saw %d outcomes, report sent %d pieces",
			probe.delivered+probe.failed, probed.PiecesSent)
	}
}

func TestBadEdgeIndex(t *testing.T) {
	e := theorem1(t)
	if _, err := SendEdges(e, []int{len(e.Paths)}, Config{}); err == nil {
		t.Fatal("wanted range error")
	}
	if _, err := BundleBurst(e, -1, 1, 0); err == nil {
		t.Fatal("wanted range error")
	}
}

// Retries/Reroutes/DeadlineMisses classify the healing work: a
// single-path failover is one retry that is also a reroute, and a
// deadline tighter than the failover latency flags the edge as a miss
// without changing routing.
func TestRetryRerouteDeadlineAccounting(t *testing.T) {
	e := theorem1(t)
	ids, err := e.Host.PathEdgeIDs(e.Paths[0][0])
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.NewSchedule()
	sched.FailLink(ids[0], 1)

	clean, err := SendEdges(e, []int{0}, Config{
		Strategy: SinglePath, Mode: netsim.StoreAndForward, Flits: 4, MaxRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Retries != 0 || clean.Reroutes != 0 || clean.DeadlineMisses != 0 {
		t.Fatalf("clean run accounted healing work: %+v", clean)
	}

	rep, err := SendEdges(e, []int{0}, Config{
		Strategy: SinglePath, Mode: netsim.StoreAndForward, Flits: 4,
		MaxRetries: 2, Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 1 || rep.Reroutes != 1 {
		t.Fatalf("failover should be one retry, one reroute: %+v", rep)
	}
	if rep.DeadlineMisses != 0 {
		t.Fatalf("no deadline configured, yet misses reported: %+v", rep)
	}
	lat := rep.EdgeReports[0].Latency

	// Deadline past the failover latency: delivered in time, no miss.
	loose := Config{
		Strategy: SinglePath, Mode: netsim.StoreAndForward, Flits: 4,
		MaxRetries: 2, Faults: sched, Deadline: lat,
	}
	if r, err := SendEdges(e, []int{0}, loose); err != nil {
		t.Fatal(err)
	} else if r.DeadlineMisses != 0 {
		t.Fatalf("deadline %d not missed by latency %d, yet: %+v", lat, lat, r)
	}

	// One step tighter: same delivery, now classified late.
	tight := loose
	tight.Deadline = lat - 1
	r, err := SendEdges(e, []int{0}, tight)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveredEdges != 1 || r.DeadlineMisses != 1 {
		t.Fatalf("late delivery should count as a miss: %+v", r)
	}

	// Undelivered edges always miss a configured deadline.
	burst, err := BundleBurst(e, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := SendEdges(e, []int{0}, Config{
		Strategy: SinglePath, Mode: netsim.StoreAndForward, Flits: 4,
		MaxRetries: 1, Faults: burst, Deadline: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dead.DeliveredEdges != 0 || dead.DeadlineMisses != 1 {
		t.Fatalf("undelivered edge should miss its deadline: %+v", dead)
	}
}
