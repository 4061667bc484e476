package multipath

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// Integration tests through the public API: each test exercises a
// complete user journey rather than re-testing internals.

func TestQuickstartJourney(t *testing.T) {
	// Build the Theorem 1 embedding, verify its headline numbers, and
	// measure the speedup against the Gray-code baseline.
	const n = 8
	multi, err := CycleWidthEmbedding(n)
	if err != nil {
		t.Fatal(err)
	}
	gray, err := GrayCodeCycle(n)
	if err != nil {
		t.Fatal(err)
	}
	w, err := multi.Width()
	if err != nil {
		t.Fatal(err)
	}
	if w != CycleWidth(n)+1 {
		t.Errorf("width %d", w)
	}
	if c, err := multi.SynchronizedCost(); err != nil || c != 3 {
		t.Fatalf("cost %d err %v", c, err)
	}
	const m = 30
	cg, err := gray.PPacketCost(m)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := multi.PPacketCost(m)
	if err != nil {
		t.Fatal(err)
	}
	if cm >= cg {
		t.Errorf("no speedup: %d vs %d", cm, cg)
	}
}

func TestFaultToleranceJourney(t *testing.T) {
	e, err := CycleWidthEmbedding(8)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("routing multiple paths in hypercubes")
	faults := NewFaultModel(e.Host.DirectedEdges(), 0.01, 99)
	delivered := 0
	for edge := 0; edge < 32; edge++ {
		rep, got, err := FaultTolerantSend(e, edge, data, 3, faults)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Delivered {
			delivered++
			if !bytes.Equal(got, data) {
				t.Fatal("corrupted reconstruction")
			}
		}
	}
	if delivered < 28 {
		t.Errorf("only %d/32 delivered", delivered)
	}
}

func TestSimulationJourney(t *testing.T) {
	msgs := []*Message{
		{Route: []int{1, 2, 3}, Flits: 8},
		{Route: []int{3, 4}, Flits: 8},
	}
	ct, err := Simulate(msgs, CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := Simulate([]*Message{
		{Route: []int{1, 2, 3}, Flits: 8},
		{Route: []int{3, 4}, Flits: 8},
	}, StoreAndForward)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Steps >= sf.Steps {
		t.Errorf("cut-through %d not faster than store-and-forward %d", ct.Steps, sf.Steps)
	}
}

func TestDecompositionJourney(t *testing.T) {
	d, err := HamiltonianDecomposition(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cycles) != 5 {
		t.Fatalf("%d cycles", len(d.Cycles))
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiCopyJourney(t *testing.T) {
	smart, err := CCCMultiCopy(8)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := CCCMultiCopyNaive(8)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := smart.EdgeCongestion()
	if err != nil {
		t.Fatal(err)
	}
	nc, err := naive.EdgeCongestion()
	if err != nil {
		t.Fatal(err)
	}
	if sc > 2 || nc <= sc {
		t.Errorf("congestion smart=%d naive=%d", sc, nc)
	}
}

func TestTreeJourney(t *testing.T) {
	cbt, err := CompleteBinaryTree(2)
	if err != nil {
		t.Fatal(err)
	}
	if w, err := cbt.Width(); err != nil || w != 3 {
		t.Fatalf("width %d err %v", w, err)
	}
	tree := RandomBinaryTree(14, 5)
	e, err := ArbitraryBinaryTree(2, tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGridJourney(t *testing.T) {
	g, err := GridEmbedding([]int{12, 12})
	if err != nil {
		t.Fatal(err)
	}
	if c, err := g.PhaseCost(0, true); err != nil || c != 3 {
		t.Fatalf("phase cost %d err %v", c, err)
	}
	costs, err := CompareRelaxationMappings(512, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 3 {
		t.Fatalf("%d strategies", len(costs))
	}
}

func TestLargeCopyJourney(t *testing.T) {
	for name, build := range map[string]func() (*Embedding, error){
		"cycle":     func() (*Embedding, error) { return LargeCopyCycle(6) },
		"ccc":       func() (*Embedding, error) { return LargeCopyCCC(6) },
		"butterfly": func() (*Embedding, error) { return LargeCopyButterfly(6) },
		"fft":       func() (*Embedding, error) { return LargeCopyFFT(6) },
	} {
		e, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := e.Congestion()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c > 2 {
			t.Errorf("%s: congestion %d", name, c)
		}
	}
}

func TestDisjointPathsJourney(t *testing.T) {
	q := NewHypercube(6)
	paths := DisjointPaths(q, 0, 63)
	if len(paths) != 6 {
		t.Fatalf("%d paths", len(paths))
	}
	data := []byte("ida over the classical fan")
	pieces, err := Disperse(data, len(paths), 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(pieces[1:5], 4, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip failed")
	}
}

func TestObservabilityJourney(t *testing.T) {
	mk := func() []*Message {
		return []*Message{
			{Route: []int{1, 2, 3}, Flits: 8},
			{Route: []int{3, 4}, Flits: 8},
		}
	}
	bare, err := Simulate(mk(), CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	probed, err := SimulateProbed(mk(), CutThrough, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, probed) {
		t.Errorf("probe changed the result: %+v vs %+v", bare, probed)
	}
	if rec.Delivered != 2 {
		t.Errorf("recorder saw %d deliveries", rec.Delivered)
	}
	var sum DistSummary = rec.MsgLatency.Summarize()
	if sum.N != 2 || sum.Max > bare.Steps {
		t.Errorf("message-latency summary %+v vs %d steps", sum, bare.Steps)
	}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	if _, err := SimulateProbed(mk(), CutThrough, tw); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ev":"deliver"`) {
		t.Errorf("trace missing deliver events:\n%s", buf.String())
	}
}

// The open-loop journey: templates from an embedding, a seeded Poisson
// trace, latencies folded into a Recorder histogram, and the leap-step
// accounting visible in the result.
func TestOpenLoopJourney(t *testing.T) {
	emb, err := CycleWidthEmbedding(6)
	if err != nil {
		t.Fatal(err)
	}
	tmpls, err := WidthPathMessages(emb, 4)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := PoissonArrivals(42, 0.05, 400, len(tmpls))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	res, err := SimulateOpenLoop(tmpls, trace.Source(), OpenLoopOpts{
		Mode: CutThrough,
		Sink: rec.MsgLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != 400 || res.DeliveredMsgs != 400 {
		t.Fatalf("injected %d delivered %d, want 400/400", res.Injected, res.DeliveredMsgs)
	}
	if res.SkippedSteps == 0 {
		t.Error("low-load Poisson run skipped no steps")
	}
	sum := rec.MsgLatency.Summarize()
	if sum.N != 400 || sum.P50 < 1 || sum.P99 < sum.P50 {
		t.Errorf("latency summary %+v", sum)
	}
	// Bursty traffic through the same pipeline.
	bursty, err := MMPPArrivals(7, 0.01, 0.5, 200, 400, len(tmpls))
	if err != nil {
		t.Fatal(err)
	}
	rec.Reset()
	if _, err := SimulateOpenLoop(tmpls, bursty.Source(), OpenLoopOpts{Mode: CutThrough, Sink: rec.MsgLatency}); err != nil {
		t.Fatal(err)
	}
	if rec.MsgLatency.N != 400 {
		t.Errorf("bursty run observed %d latencies, want 400", rec.MsgLatency.N)
	}
}

// The heavy-tailed open-loop journey: the same pipeline under Pareto
// and log-normal arrivals delivers every message, leaps over the long
// quiescent gaps, and replays to the same result and latency summary.
func TestOpenLoopHeavyTailJourney(t *testing.T) {
	emb, err := CycleWidthEmbedding(6)
	if err != nil {
		t.Fatal(err)
	}
	tmpls, err := WidthPathMessages(emb, 4)
	if err != nil {
		t.Fatal(err)
	}
	pareto, err := ParetoArrivals(9, 1.1, 0.5, 400, len(tmpls))
	if err != nil {
		t.Fatal(err)
	}
	lognorm, err := LogNormalArrivals(9, 0.5, 1.5, 400, len(tmpls))
	if err != nil {
		t.Fatal(err)
	}
	for name, trace := range map[string]*ArrivalTrace{"pareto": pareto, "lognormal": lognorm} {
		first := NewRecorder()
		want, err := SimulateOpenLoop(tmpls, trace.Source(), OpenLoopOpts{
			Mode: CutThrough, Sink: first.MsgLatency,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want.DeliveredMsgs != 400 {
			t.Fatalf("%s: delivered %d, want 400", name, want.DeliveredMsgs)
		}
		if want.SkippedSteps == 0 {
			t.Errorf("%s: heavy-tailed trace skipped no steps", name)
		}
		replay := NewRecorder()
		got, err := SimulateOpenLoop(tmpls, trace.Source(), OpenLoopOpts{
			Mode: CutThrough, Sink: replay.MsgLatency,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: replay %+v != first run %+v", name, got, want)
		}
		gs, ws := replay.MsgLatency.Summarize(), first.MsgLatency.Summarize()
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("%s: latency summary %+v != %+v", name, gs, ws)
		}
	}
}

func TestSelfHealingJourney(t *testing.T) {
	e, err := CycleWidthEmbedding(6)
	if err != nil {
		t.Fatal(err)
	}
	// One transfer per guest edge, 4 arrivals per step, over a fabric
	// where 10% of directed links are permanently dead from step 1.
	tr := &ArrivalTrace{}
	for i := range e.Paths {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i / 4, Tmpl: int32(i)})
	}
	sched := BernoulliFaults(e.Host.DirectedEdges(), 0.1, 7)
	cfg := SelfHealConfig{
		Mode:       CutThrough,
		Flits:      8,
		Strategy:   RerouteSelfHeal,
		MaxRetries: 3,
		Deadline:   64,
		Backoff:    ExpBackoff{Base: 2, Cap: 16, Jitter: 0.5, Seed: 1},
		Faults:     sched,
		StepLimit:  4000,
	}
	rep, err := SelfHealSend(e, nil, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries == 0 || rep.Reroutes == 0 {
		t.Fatalf("faulty fabric healed nothing: %+v", rep)
	}
	if rep.DeliveredFraction < 0.95 {
		t.Fatalf("self-healing delivered only %.3f: %+v", rep.DeliveredFraction, rep)
	}
	// The contract that makes the numbers trustworthy: a replay of the
	// same trace and config gives the same Report.
	again, err := SelfHealSend(e, nil, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, rep) {
		t.Fatalf("report diverged on replay:\n%+v\nvs\n%+v", *again, *rep)
	}
	// IDA dispersal is the zero-retry alternative over the same bundle
	// templates (PathTemplates exposes the layout).
	tmpls, groups, err := PathTemplates(e, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(e.Paths) || len(tmpls) == 0 {
		t.Fatalf("template layout misshapen: %d groups, %d templates", len(groups), len(tmpls))
	}
	ida := cfg
	ida.Strategy = IDASelfHeal
	ida.K = len(e.Paths[0]) - 1
	idaRep, err := SelfHealSend(e, nil, tr, ida)
	if err != nil {
		t.Fatal(err)
	}
	if idaRep.Retries != 0 {
		t.Fatalf("IDA strategy retried: %+v", idaRep)
	}
}

// The strategy-zoo journey: named traffic demands routed by every
// strategy through the facade, then the adaptive strategy's windowed
// feedback run over a hotspot demand.
func TestStrategyJourney(t *testing.T) {
	q := NewHypercube(6)
	if pats := TrafficPatterns(); len(pats) != 5 {
		t.Fatalf("TrafficPatterns() = %v, want 5 names", pats)
	}
	pairs, err := PatternDemand(q, "transpose", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []RoutingStrategy{
		NewDimOrder(q), NewValiantStrategy(q), NewMinimalOblivious(q), NewAdaptive(q),
	} {
		tmpls, err := StrategyTemplates(s, q, pairs, 4, 11)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		res, err := Simulate(tmpls, CutThrough)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.DeliveredMsgs != len(tmpls) {
			t.Errorf("%s delivered %d of %d", s.Name(), res.DeliveredMsgs, len(tmpls))
		}
	}
	hot, err := PatternDemand(q, "hotspot", 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := PoissonArrivals(3, 0.5, 400, len(hot))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	res, err := RunStrategy(NewAdaptive(q), q, hot, tr, StrategyRunConfig{
		Flits: 2, Windows: 4, Seed: 5, Mode: CutThrough, Sink: rec.MsgLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != 4 || res.Injected != 400 || res.DeliveredMsgs != 400 {
		t.Fatalf("windowed run: %+v", res)
	}
	if res.FlitsMoved+res.DroppedFlits != res.InjectedHops {
		t.Fatalf("conservation violated: moved %d + dropped %d != injected %d",
			res.FlitsMoved, res.DroppedFlits, res.InjectedHops)
	}
	if rec.MsgLatency.N == 0 {
		t.Error("latency sink observed nothing")
	}
}
