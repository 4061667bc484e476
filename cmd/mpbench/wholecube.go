package main

import (
	"fmt"
	"sync"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/traffic"
)

// E27 / the whole_cube_sweep section of BENCH_traffic.json: whole-cube
// open-loop saturation sweeps on the Theorem 1 and Theorem 2
// embeddings at Q_16/Q_20. Unlike E26's hotspot window, the templates
// here cover every guest edge of the cube, so the arrival stream
// drives the entire dense link space — millions of links at Q_20 —
// and each load point is sized to cover olWindow simulated steps at
// its arrival rate. Whole-cube capacity grows with the cube, so the
// arrival budget is capped at olNMax; capped points cover fewer steps
// than olWindow and are flagged in the record (a high-load Q_20 point
// describes the loaded transient, not a long steady state — no silent
// caps). The (arrival process, load) points of one embedding and
// dimension are independent seeded runs, so they fan out across up to
// GOMAXPROCS serial engines (forEachIndex) and land in fixed index
// order: the values are those of a serial run, which -parallel=false
// gives. Every worker holds a whole-cube engine, whose per-link state
// alone is ~0.7 GB at Q_20's 21M links (two Q_20 workers passed 5.5 GB
// RSS), so olFanOutLinks caps workers × links: Q_16 (1M links) fans out
// fully and Q_20 runs one point at a time.

// Sweep parameters, overridable with -traffic-dims (host dimensions,
// shared with E26 and E29). The test package shrinks them so the
// regression gate stays fast.
var (
	olDims   = []int{16, 20}
	olLoads  = []float64{0.5, 0.9, 1.3}
	olFlits  = 4
	olWindow = 15        // target simulated steps per load point
	olNMax   = 1_000_000 // arrival budget cap per load point
	olSeed   = int64(27)
	// olProcesses are the arrival processes of each case's curves.
	olProcesses = []string{"poisson", "mmpp"}
)

// olFanOutLinks bounds workers × links of one case's fan-out.
const olFanOutLinks = 1 << 23

// olArrivalCount sizes one load point's trace: enough arrivals to
// cover olWindow steps at rate lambda, capped at the olNMax budget.
func olArrivalCount(lambda float64) (count int, capped bool) {
	n := int(lambda*float64(olWindow)) + 1
	if n > olNMax {
		return olNMax, true
	}
	return n, false
}

// wholeCubeCurve is one arrival process's whole-cube load curve.
type wholeCubeCurve struct {
	Arrival string         `json:"arrival_process"`
	Points  []trafficPoint `json:"points"`
	// CappedLoads lists the swept loads whose arrival count hit the
	// olNMax budget (their windows are shorter than olWindow steps).
	CappedLoads []float64 `json:"capped_loads,omitempty"`
	// Saturation detection as in the E26 cases: the largest load whose
	// mean latency stays within 3x the lowest-load mean.
	SaturationLoad       float64 `json:"saturation_load"`
	SaturationThroughput float64 `json:"saturation_throughput"`
}

// wholeCubeCase is one embedding×dimension of the E27 sweep: its
// whole-cube load curves, one per arrival process.
type wholeCubeCase struct {
	Embedding string `json:"embedding"`
	Dims      int    `json:"dims"`
	Nodes     int    `json:"nodes"`
	Links     int    `json:"links"`
	Templates int    `json:"templates"`
	// Capacity is the whole cube's closed-loop drain rate (flit-hops
	// per step with every template injected at step 0).
	Capacity     float64          `json:"capacity_flits_per_step"`
	MeanFlitHops float64          `json:"mean_flit_hops_per_msg"`
	Curves       []wholeCubeCurve `json:"curves"`
}

// wholeCubePoint runs one load point: a seeded trace at load times the
// cube's capacity, through the serial open-loop engine with the
// standard measurement harness (cut-through, latency after the
// warm-up cutoff).
func wholeCubePoint(tmpls []*netsim.Message, process string, load, capacity, meanWork float64) (trafficPoint, error) {
	lambda := load * capacity / meanWork
	count, _ := olArrivalCount(lambda)
	tr, err := trafficTrace(process, olSeed, lambda, count, len(tmpls))
	if err != nil {
		return trafficPoint{}, err
	}
	h := obsv.NewHistogram(1, 1<<14)
	res, err := netsim.SimulateOpenLoop(tmpls, tr.Source(),
		netsim.OpenLoopOpts{Mode: netsim.CutThrough, MeasureAfter: warmupCutoff(tr), Sink: h})
	if err != nil {
		return trafficPoint{}, err
	}
	steps := max(res.Steps, 1)
	return trafficPoint{
		Load:        load,
		Lambda:      lambda,
		Arrivals:    count,
		Steps:       res.Steps,
		Skipped:     res.SkippedSteps,
		SkippedFrac: float64(res.SkippedSteps) / float64(steps),
		Delivered:   res.DeliveredMsgs,
		MaxInFlight: res.MaxInFlight,
		Throughput:  float64(res.FlitsMoved) / float64(steps),
		Latency:     h.Summarize(),
	}, nil
}

// measureWholeCubeSweep runs the E27 sweep once per process; the table
// and BENCH_traffic.json's whole_cube_sweep section both read the cache.
var measureWholeCubeSweep = sync.OnceValues(func() ([]wholeCubeCase, error) {
	return wholeCubeSweep(parallelRuns)
})

// wholeCubeSweep runs the E27 sweep, fanning each case's load points
// out across forEachIndex's workers when parallel is set.
func wholeCubeSweep(parallel bool) ([]wholeCubeCase, error) {
	var cases []wholeCubeCase
	builders := []struct {
		name  string
		build func(int) (*core.Embedding, error)
	}{
		{"theorem1", cycles.Theorem1},
		{"theorem2", cycles.Theorem2},
	}
	for _, n := range olDims {
		for _, b := range builders {
			emb, err := b.build(n)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", b.name, n, err)
			}
			tmpls, err := traffic.WidthPathMessages(emb, olFlits)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", b.name, n, err)
			}
			drain, err := netsim.Simulate(tmpls, netsim.CutThrough)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d drain: %w", b.name, n, err)
			}
			work := 0
			for _, m := range tmpls {
				work += m.Flits * len(m.Route)
			}
			meanWork := float64(work) / float64(len(tmpls))
			capacity := float64(drain.FlitsMoved) / float64(max(drain.Steps, 1))
			c := wholeCubeCase{
				Embedding:    b.name,
				Dims:         n,
				Nodes:        emb.Host.Nodes(),
				Links:        emb.Host.DirectedEdges(),
				Templates:    len(tmpls),
				Capacity:     capacity,
				MeanFlitHops: meanWork,
			}
			// Point i is process i/len(olLoads) at load i%len(olLoads).
			pts := make([]trafficPoint, len(olProcesses)*len(olLoads))
			errs := make([]error, len(pts))
			workers := min(workerCount(parallel), max(olFanOutLinks/c.Links, 1))
			forEachIndex(len(pts), workers, func(i int) {
				process, load := olProcesses[i/len(olLoads)], olLoads[i%len(olLoads)]
				pts[i], errs[i] = wholeCubePoint(tmpls, process, load, capacity, meanWork)
				if errs[i] != nil {
					errs[i] = fmt.Errorf("%s n=%d %s load=%g: %w", b.name, n, process, load, errs[i])
				}
			})
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
			for p, process := range olProcesses {
				curve := wholeCubeCurve{Arrival: process, Points: pts[p*len(olLoads) : (p+1)*len(olLoads)]}
				for _, pt := range curve.Points {
					if _, capped := olArrivalCount(pt.Lambda); capped {
						curve.CappedLoads = append(curve.CappedLoads, pt.Load)
					}
				}
				base := curve.Points[0].Latency.Mean
				for _, pt := range curve.Points {
					if pt.Latency.Mean <= 3*base {
						curve.SaturationLoad = pt.Load
						curve.SaturationThroughput = pt.Throughput
					}
				}
				c.Curves = append(c.Curves, curve)
			}
			cases = append(cases, c)
		}
	}
	return cases, nil
}

// runE27 renders the whole-cube open-loop sweep: steady-state latency
// versus offered load per arrival process.
func runE27() (*table, error) {
	cases, err := measureWholeCubeSweep()
	if err != nil {
		return nil, err
	}
	tab := &table{headers: []string{
		"embedding", "host", "process", "load", "arrivals", "steps", "p50", "p95", "p99", "mean", "flits/step",
	}}
	for _, c := range cases {
		host := fmt.Sprintf("Q_%d", c.Dims)
		for _, curve := range c.Curves {
			for _, pt := range curve.Points {
				tab.addRow(
					c.Embedding,
					host,
					curve.Arrival,
					fmt.Sprintf("%.2f", pt.Load),
					fmt.Sprintf("%d", pt.Arrivals),
					fmt.Sprintf("%d", pt.Steps),
					fmt.Sprintf("%d", pt.Latency.P50),
					fmt.Sprintf("%d", pt.Latency.P95),
					fmt.Sprintf("%d", pt.Latency.P99),
					fmt.Sprintf("%.1f", pt.Latency.Mean),
					fmt.Sprintf("%.0f", pt.Throughput),
				)
			}
			if len(curve.CappedLoads) > 0 {
				tab.note("%s %s %s: loads %v hit the %d-arrival budget — their windows cover fewer than %d steps (loaded transient, not long steady state).",
					c.Embedding, host, curve.Arrival, curve.CappedLoads, olNMax, olWindow)
			}
		}
		tab.note("%s %s: %d whole-cube templates over %d links.", c.Embedding, host, c.Templates, c.Links)
	}
	tab.note("Whole-cube width-path templates, %d flits per guest edge, cut-through; load is offered flit-hops "+
		"as a fraction of the cube's closed-loop drain capacity, latency excludes the first 20%% of arrivals "+
		"(warm-up). Each load point is an independent serial-engine run; -parallel fans the points out "+
		"across cores, which changes the wall-clock, never a value.",
		olFlits)
	return tab, nil
}
