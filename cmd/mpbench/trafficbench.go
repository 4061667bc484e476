package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/traffic"
)

// E26 / BENCH_traffic.json: open-loop latency-vs-offered-load curves
// on the Theorem 1 and Theorem 2 embeddings, plus the measured wall
// clock of netsim.SimulateOpenLoop against the retained naive per-step
// baseline (SimulateOpenLoopReference). Every engine run that feeds a
// speedup number is first verified bit-identical to the baseline —
// same counters, same latency distribution.
//
// The traffic is a hotspot window: the disjoint-path templates of
// trafficEdges consecutive guest edges, not the whole cube. Driving the
// entire Q_16 link space to saturation would need arrival counts far
// beyond what a benchmark can inject (capacity is ~10^6 flits/step);
// the window keeps the sub-network's capacity small enough that a
// 20k-arrival sweep reaches genuine steady state on both sides of the
// saturation knee, while still exercising the cost-3 link sharing
// between adjacent edges' paths. Offered load ρ is normalized to the
// window's measured closed-loop capacity, so ρ = 1.0 nominally matches
// what the drained all-at-once run sustains.

// Sweep parameters, overridable with -traffic-dims / -load / -arrival.
// The test package shrinks them so the regression gate stays fast.
var (
	trafficDims    = []int{12, 16}
	trafficFlits   = 16
	trafficEdges   = 64 // guest edges in the hotspot window
	trafficLoads   = []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0}
	trafficN       = 20000 // arrivals per load point
	trafficSeed    = int64(26)
	trafficArrival = "poisson" // or "mmpp"
	trafficReps    = 2         // best-of repetitions per timed speedup point
	// trickleN/trickleRate: the low-rate speedup case where the leap
	// clock dominates — the naive baseline must iterate every quiescent
	// step while the engine jumps arrival to arrival.
	trickleN    = 2000
	trickleRate = 0.01
)

type trafficPoint struct {
	Load     float64 `json:"load"`
	Lambda   float64 `json:"lambda_msgs_per_step"`
	Arrivals int     `json:"arrivals"`
	Steps    int     `json:"steps"`
	Skipped  int     `json:"skipped_steps"`
	// SkippedFrac is the fraction of model steps the leap clock never
	// iterated.
	SkippedFrac float64 `json:"skipped_frac"`
	Delivered   int     `json:"delivered"`
	MaxInFlight int     `json:"max_in_flight"`
	// Throughput is delivered flit-hops per model step over the run.
	Throughput float64 `json:"throughput_flits_per_step"`
	// Latency summarizes steady-state message latency: arrivals during
	// the warm-up prefix (first 20% of arrivals) are excluded.
	Latency obsv.Summary `json:"latency"`
}

type trafficCase struct {
	Embedding string `json:"embedding"`
	Dims      int    `json:"dims"`
	Nodes     int    `json:"nodes"`
	Links     int    `json:"links"`
	Edges     int    `json:"edges"`
	Templates int    `json:"templates"`
	// Capacity is the hotspot window's closed-loop drain rate
	// (flit-hops per step with every template injected at step 0) — the
	// normalizer behind the load axis.
	Capacity     float64        `json:"capacity_flits_per_step"`
	MeanFlitHops float64        `json:"mean_flit_hops_per_msg"`
	Points       []trafficPoint `json:"points"`
	// SaturationLoad is the largest swept load whose mean latency stays
	// within 3x the lowest-load mean; SaturationThroughput is that
	// point's delivered flit-hops per step.
	SaturationLoad       float64 `json:"saturation_load"`
	SaturationThroughput float64 `json:"saturation_throughput"`
}

type trafficSpeedup struct {
	Case     string  `json:"case"`
	Lambda   float64 `json:"lambda_msgs_per_step"`
	Arrivals int     `json:"arrivals"`
	Steps    int     `json:"steps"`
	EngineMS float64 `json:"engine_ms"`
	NaiveMS  float64 `json:"naive_ms"`
	Speedup  float64 `json:"speedup"`
}

type trafficReport struct {
	GeneratedAt string           `json:"generated_at"`
	Env         benchEnv         `json:"env"`
	Mode        string           `json:"mode"`
	Arrival     string           `json:"arrival_process"`
	Flits       int              `json:"flits"`
	Seed        int64            `json:"seed"`
	WallMS      float64          `json:"wall_ms"`
	Cases       []trafficCase    `json:"cases"`
	Speedups    []trafficSpeedup `json:"speedups"`
	// WholeCubeSweep is the E27 record: whole-cube saturation curves
	// per arrival process.
	WholeCubeSweep []wholeCubeCase `json:"whole_cube_sweep"`
	// StrategyRace is the E29 record: the routing strategy zoo raced
	// against the paper's disjoint-path construction across traffic
	// patterns on clean and faulty fabrics.
	StrategyRace *raceReport `json:"strategy_race"`
}

// trafficWindow cuts the hotspot window out of an embedding and builds
// its route templates.
func trafficWindow(emb *core.Embedding) (*core.Embedding, []*netsim.Message, error) {
	sub := *emb
	if len(sub.Paths) > trafficEdges {
		sub.Paths = sub.Paths[:trafficEdges]
	}
	tmpls, err := traffic.WidthPathMessages(&sub, trafficFlits)
	if err != nil {
		return nil, nil, err
	}
	if len(tmpls) == 0 {
		return nil, nil, fmt.Errorf("hotspot window built no templates")
	}
	return &sub, tmpls, nil
}

// trafficTrace draws the arrival trace for one load point under the
// given process. MMPP keeps the same mean rate as the Poisson process
// (equal expected dwell in a 0.4λ and a 1.6λ phase) so the load axis
// means the same thing for both.
func trafficTrace(process string, seed int64, lambda float64, count, ntmpl int) (*netsim.Trace, error) {
	switch process {
	case "poisson":
		return traffic.PoissonArrivals(seed, lambda, count, ntmpl)
	case "mmpp":
		return traffic.MMPPArrivals(seed, 0.4*lambda, 1.6*lambda, 200, count, ntmpl)
	default:
		return nil, fmt.Errorf("unknown arrival process %q (want poisson or mmpp)", process)
	}
}

// warmupCutoff returns the MeasureAfter step excluding the first 20%
// of arrivals from the latency distribution.
func warmupCutoff(tr *netsim.Trace) int {
	if len(tr.Arrivals) == 0 {
		return 0
	}
	return tr.Arrivals[len(tr.Arrivals)/5].Step
}

// timeOpenLoop times an open-loop run: one untimed warm run (the first
// run at a new size pays pooled-engine state growth, which is setup,
// not simulation), a GC to settle the heap the preceding experiments
// left, then the best of trafficReps timed runs.
func timeOpenLoop(sim func() (*netsim.OpenLoopResult, error)) (time.Duration, *netsim.OpenLoopResult, error) {
	res, err := sim()
	if err != nil {
		return 0, nil, err
	}
	runtime.GC()
	var best time.Duration
	for rep := 0; rep < trafficReps; rep++ {
		start := time.Now()
		r, err := sim()
		if err != nil {
			return 0, nil, err
		}
		if d := time.Since(start); rep == 0 || d < best {
			best = d
		}
		res = r
	}
	return best, res, nil
}

// measureTrafficSpeedup times the engine against the naive per-step
// baseline on one trace, verifying bit-identity (counters and latency
// histograms) before any timing is recorded.
func measureTrafficSpeedup(name string, tmpls []*netsim.Message, lambda float64, count int) (*trafficSpeedup, error) {
	tr, err := trafficTrace(trafficArrival, trafficSeed, lambda, count, len(tmpls))
	if err != nil {
		return nil, err
	}
	after := warmupCutoff(tr)
	run := func(sim func([]*netsim.Message, netsim.ArrivalSource, netsim.OpenLoopOpts) (*netsim.OpenLoopResult, error)) (*netsim.OpenLoopResult, *obsv.Histogram, error) {
		h := obsv.NewHistogram(1, 1<<14)
		r, err := sim(tmpls, tr.Source(), netsim.OpenLoopOpts{
			Mode: netsim.CutThrough, MeasureAfter: after, Sink: h,
		})
		return r, h, err
	}
	eng, engHist, err := run(netsim.SimulateOpenLoop)
	if err != nil {
		return nil, fmt.Errorf("%s: engine: %w", name, err)
	}
	naive, naiveHist, err := run(netsim.SimulateOpenLoopReference)
	if err != nil {
		return nil, fmt.Errorf("%s: naive baseline: %w", name, err)
	}
	engCmp := *eng
	engCmp.SkippedSteps = 0 // the baseline never skips; everything else must match
	if engCmp != *naive {
		return nil, fmt.Errorf("%s: engine diverged from naive baseline: %+v vs %+v", name, engCmp, *naive)
	}
	if engHist.N != naiveHist.N || engHist.Sum != naiveHist.Sum || engHist.Max != naiveHist.Max ||
		engHist.Over != naiveHist.Over || !slices.Equal(engHist.Counts, naiveHist.Counts) {
		return nil, fmt.Errorf("%s: latency distributions diverged (N %d vs %d, Sum %d vs %d)",
			name, engHist.N, naiveHist.N, engHist.Sum, naiveHist.Sum)
	}
	engWall, _, err := timeOpenLoop(func() (*netsim.OpenLoopResult, error) {
		r, _, err := run(netsim.SimulateOpenLoop)
		return r, err
	})
	if err != nil {
		return nil, err
	}
	naiveWall, _, err := timeOpenLoop(func() (*netsim.OpenLoopResult, error) {
		r, _, err := run(netsim.SimulateOpenLoopReference)
		return r, err
	})
	if err != nil {
		return nil, err
	}
	return &trafficSpeedup{
		Case:     name,
		Lambda:   lambda,
		Arrivals: count,
		Steps:    eng.Steps,
		EngineMS: float64(engWall) / float64(time.Millisecond),
		NaiveMS:  float64(naiveWall) / float64(time.Millisecond),
		Speedup:  float64(naiveWall) / float64(engWall),
	}, nil
}

// measureTrafficSweep runs the E26 sweep once per process; the table
// and BENCH_traffic.json both read the cached result.
var measureTrafficSweep = sync.OnceValues(func() (*trafficReport, error) {
	start := time.Now()
	rep := &trafficReport{
		Mode:    netsim.CutThrough.String(),
		Arrival: trafficArrival,
		Flits:   trafficFlits,
		Seed:    trafficSeed,
	}
	type embCase struct {
		name  string
		build func(int) (*core.Embedding, error)
	}
	embs := []embCase{
		{"theorem1", cycles.Theorem1},
		{"theorem2", cycles.Theorem2},
	}
	for _, n := range trafficDims {
		for _, ec := range embs {
			emb, err := ec.build(n)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", ec.name, n, err)
			}
			sub, tmpls, err := trafficWindow(emb)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", ec.name, n, err)
			}
			// The window's closed-loop drain run: capacity normalizer.
			drain, err := netsim.Simulate(tmpls, netsim.CutThrough)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d drain: %w", ec.name, n, err)
			}
			work := 0
			for _, m := range tmpls {
				work += m.Flits * len(m.Route)
			}
			meanWork := float64(work) / float64(len(tmpls))
			capacity := float64(drain.FlitsMoved) / float64(max(drain.Steps, 1))
			c := trafficCase{
				Embedding:    ec.name,
				Dims:         n,
				Nodes:        emb.Host.Nodes(),
				Links:        emb.Host.DirectedEdges(),
				Edges:        len(sub.Paths),
				Templates:    len(tmpls),
				Capacity:     capacity,
				MeanFlitHops: meanWork,
			}
			for _, load := range trafficLoads {
				lambda := load * capacity / meanWork
				tr, err := trafficTrace(trafficArrival, trafficSeed, lambda, trafficN, len(tmpls))
				if err != nil {
					return nil, fmt.Errorf("%s n=%d load=%g: %w", ec.name, n, load, err)
				}
				h := obsv.NewHistogram(1, 1<<14)
				res, err := netsim.SimulateOpenLoop(tmpls, tr.Source(), netsim.OpenLoopOpts{
					Mode:         netsim.CutThrough,
					MeasureAfter: warmupCutoff(tr),
					Sink:         h,
				})
				if err != nil {
					return nil, fmt.Errorf("%s n=%d load=%g: %w", ec.name, n, load, err)
				}
				steps := max(res.Steps, 1)
				c.Points = append(c.Points, trafficPoint{
					Load:        load,
					Lambda:      lambda,
					Arrivals:    trafficN,
					Steps:       res.Steps,
					Skipped:     res.SkippedSteps,
					SkippedFrac: float64(res.SkippedSteps) / float64(steps),
					Delivered:   res.DeliveredMsgs,
					MaxInFlight: res.MaxInFlight,
					Throughput:  float64(res.FlitsMoved) / float64(steps),
					Latency:     h.Summarize(),
				})
			}
			base := c.Points[0].Latency.Mean
			for _, pt := range c.Points {
				if pt.Latency.Mean <= 3*base {
					c.SaturationLoad = pt.Load
					c.SaturationThroughput = pt.Throughput
				}
			}
			rep.Cases = append(rep.Cases, c)
		}
	}
	// Speedup vs the naive baseline on the largest host's Theorem 1
	// window: the acceptance case at 20% offered load, plus the trickle
	// case where leap-stepping dominates.
	n := trafficDims[len(trafficDims)-1]
	emb, err := cycles.Theorem1(n)
	if err != nil {
		return nil, err
	}
	_, tmpls, err := trafficWindow(emb)
	if err != nil {
		return nil, err
	}
	drain, err := netsim.Simulate(tmpls, netsim.CutThrough)
	if err != nil {
		return nil, err
	}
	work := 0
	for _, m := range tmpls {
		work += m.Flits * len(m.Route)
	}
	lambda20 := 0.2 * float64(drain.FlitsMoved) / float64(max(drain.Steps, 1)) / (float64(work) / float64(len(tmpls)))
	sp, err := measureTrafficSpeedup(fmt.Sprintf("theorem1-q%d-load0.2", n), tmpls, lambda20, trafficN)
	if err != nil {
		return nil, err
	}
	rep.Speedups = append(rep.Speedups, *sp)
	sp, err = measureTrafficSpeedup(fmt.Sprintf("theorem1-q%d-trickle", n), tmpls, trickleRate, trickleN)
	if err != nil {
		return nil, err
	}
	rep.Speedups = append(rep.Speedups, *sp)
	rep.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	return rep, nil
})

// runE26 renders the offered-load sweep: steady-state latency
// percentiles versus load for the Theorem 1/2 hotspot windows, with
// the detected saturation point and the engine-vs-naive speedup.
func runE26() (*table, error) {
	rep, err := measureTrafficSweep()
	if err != nil {
		return nil, err
	}
	tab := &table{headers: []string{
		"embedding", "host", "load", "λ msg/step", "p50", "p95", "p99", "mean", "flits/step", "skipped",
	}}
	for _, c := range rep.Cases {
		host := fmt.Sprintf("Q_%d", c.Dims)
		for _, pt := range c.Points {
			tab.addRow(
				c.Embedding,
				host,
				fmt.Sprintf("%.2f", pt.Load),
				fmt.Sprintf("%.3f", pt.Lambda),
				fmt.Sprintf("%d", pt.Latency.P50),
				fmt.Sprintf("%d", pt.Latency.P95),
				fmt.Sprintf("%d", pt.Latency.P99),
				fmt.Sprintf("%.1f", pt.Latency.Mean),
				fmt.Sprintf("%.1f", pt.Throughput),
				fmt.Sprintf("%d%%", int(100*pt.SkippedFrac)),
			)
		}
		tab.note("%s Q_%d: saturation at load %.2f (%.1f flit-hops/step sustained); capacity %.1f flits/step over %d templates (%d guest edges).",
			c.Embedding, c.Dims, c.SaturationLoad, c.SaturationThroughput, c.Capacity, c.Templates, c.Edges)
	}
	for _, sp := range rep.Speedups {
		tab.note("%s: open-loop engine %.1fx over the naive per-step baseline (%.1fms vs %.1fms, %d arrivals over %d steps), results verified bit-identical before timing.",
			sp.Case, sp.Speedup, sp.EngineMS, sp.NaiveMS, sp.Arrivals, sp.Steps)
	}
	tab.note("%s arrivals over a %d-guest-edge hotspot window, %d flits per guest edge, cut-through; "+
		"load is offered flit-hops as a fraction of the window's closed-loop drain capacity, and the "+
		"latency columns exclude the first 20%% of arrivals (warm-up). The sweep is single-threaded, "+
		"so these numbers are comparable across hosts regardless of CPU count (the env block records both).",
		rep.Arrival, trafficEdges, rep.Flits)
	return tab, nil
}

func writeTrafficJSON(path string) error {
	rep, err := measureTrafficSweep()
	if err != nil {
		return err
	}
	sweep, err := measureWholeCubeSweep()
	if err != nil {
		return err
	}
	race, err := measureStrategyRace()
	if err != nil {
		return err
	}
	out := *rep
	out.WholeCubeSweep = sweep
	out.StrategyRace = race
	out.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	out.Env = currentEnv()
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
