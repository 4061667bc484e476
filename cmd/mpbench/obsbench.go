package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/faults"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/traffic"
	"multipath/internal/transport"
)

// BENCH_obsv.json: the observability layer's view of the headline
// workloads — flit/message latency distributions (p50/p95/p99) and
// per-link queue-depth histograms for the Theorem 1 and Theorem 2
// embeddings at n = 16, plus the E23 fault sweep observed through the
// transport's per-round probe. The same data backs the E24 table.

type obsvCase struct {
	Name string `json:"name"`
	// Runs/Steps/Delivered/Failed/FlitsMoved/DroppedFlits aggregate the
	// probe's counters over every simulation run folded into this case.
	Runs         int    `json:"runs"`
	Steps        int    `json:"steps"`
	Delivered    int    `json:"delivered"`
	Failed       int    `json:"failed"`
	FlitsMoved   uint64 `json:"flits_moved"`
	DroppedFlits uint64 `json:"dropped_flits"`
	// FlitLatency is the per-flit arrival-step distribution; MsgLatency
	// the per-message completion-step distribution. Steps are
	// run-relative, so for the transport cases these read as per-round
	// latencies.
	FlitLatency obsv.Summary `json:"flit_latency"`
	MsgLatency  obsv.Summary `json:"msg_latency"`
	// QueueDepth samples every link's queue length at every step; its
	// buckets are the per-link queue-depth histogram.
	QueueDepth        obsv.Summary  `json:"queue_depth"`
	QueueDepthBuckets []obsv.Bucket `json:"queue_depth_buckets"`
	// MaxLinkQueue is the engine's own peak-queue metric for the same
	// runs (sampled at enqueue time, so ≥ the StepEnd-derived max).
	MaxLinkQueue int `json:"max_link_queue"`
	// MeanBusyFraction averages the per-step fraction of links that
	// moved a flit.
	MeanBusyFraction float64 `json:"mean_busy_fraction"`
}

type obsvReport struct {
	GeneratedAt string   `json:"generated_at"`
	Env         benchEnv `json:"env"`
	Mode        string   `json:"mode"`
	Flits       int      `json:"flits"`
	// ProbeOnOverheadPct is the measured cost of *attaching* a Recorder
	// (probe-on vs bare, median of paired ratios) on the Theorem 1 n=16
	// workload — the price of observation when you ask for it. The
	// probe-off overhead contract (≤2% vs the pre-probe engine) is
	// asserted separately in internal/netsim's TestProbeOffOverhead.
	ProbeOnOverheadPct float64    `json:"probe_on_overhead_pct"`
	WallMS             float64    `json:"wall_ms"`
	Cases              []obsvCase `json:"cases"`
}

const (
	obsFlits = 16
	obsN     = 16
)

func recorderCase(name string, r *obsv.Recorder, maxQueue int) obsvCase {
	c := obsvCase{
		Name:              name,
		Runs:              r.Runs,
		Steps:             r.Steps,
		Delivered:         r.Delivered,
		Failed:            r.Failed,
		FlitsMoved:        r.Moved,
		DroppedFlits:      r.Dropped,
		FlitLatency:       r.FlitLatency.Summarize(),
		MsgLatency:        r.MsgLatency.Summarize(),
		QueueDepth:        r.QueueDepth.Summarize(),
		QueueDepthBuckets: r.QueueDepth.NonEmptyBuckets(),
		MaxLinkQueue:      maxQueue,
	}
	samples := r.BusyFraction.Samples()
	if len(samples) > 0 {
		sum := 0.0
		for _, v := range samples {
			sum += v
		}
		c.MeanBusyFraction = sum / float64(len(samples))
	}
	return c
}

// theoremCase runs one width-path workload under a Recorder.
func theoremCase(name string, build func(int) (*core.Embedding, error)) (obsvCase, error) {
	e, err := build(obsN)
	if err != nil {
		return obsvCase{}, err
	}
	msgs, err := traffic.WidthPathMessages(e, obsFlits)
	if err != nil {
		return obsvCase{}, err
	}
	rec := obsv.NewRecorder()
	res, err := netsim.SimulateProbed(msgs, netsim.CutThrough, rec)
	if err != nil {
		return obsvCase{}, err
	}
	return recorderCase(name, rec, res.MaxLinkQueue), nil
}

// probeOnOverhead times the Theorem 1 n=16 workload bare and with a
// Recorder attached: the median of 11 paired ratios, each pair one bare
// and one probed run with the leader alternating, so drift in machine
// load hits both sides of a pair alike. The Recorder is Reset (untimed)
// before every probed run, so each observes exactly one run.
func probeOnOverhead() (float64, error) {
	e, err := cycles.Theorem1(obsN)
	if err != nil {
		return 0, err
	}
	msgs, err := traffic.WidthPathMessages(e, obsFlits)
	if err != nil {
		return 0, err
	}
	rec := obsv.NewRecorder()
	run := func(probed bool) (time.Duration, error) {
		var err error
		var start time.Time
		if probed {
			rec.Reset()
			start = time.Now()
			_, err = netsim.SimulateProbed(msgs, netsim.CutThrough, rec)
		} else {
			start = time.Now()
			_, err = netsim.Simulate(msgs, netsim.CutThrough)
		}
		return time.Since(start), err
	}
	// Warm the pooled engine and the Recorder's buffers untimed.
	for _, probed := range []bool{false, true} {
		if _, err := run(probed); err != nil {
			return 0, err
		}
	}
	const pairs = 11
	ratios := make([]float64, pairs)
	for i := range ratios {
		var d [2]time.Duration // bare, probed
		for j := 0; j < 2; j++ {
			k := (i + j) % 2 // the leader alternates
			if d[k], err = run(k == 1); err != nil {
				return 0, err
			}
		}
		ratios[i] = float64(d[1]) / float64(d[0])
	}
	slices.Sort(ratios)
	return (ratios[pairs/2] - 1) * 100, nil
}

// measureObsSweep runs the observability suite once per process; the
// E24 table and BENCH_obsv.json both read the cached result.
var measureObsSweep = sync.OnceValues(func() (*obsvReport, error) {
	start := time.Now()
	rep := &obsvReport{Mode: netsim.CutThrough.String(), Flits: obsFlits}

	c1, err := theoremCase(fmt.Sprintf("theorem1-n%d", obsN), cycles.Theorem1)
	if err != nil {
		return nil, fmt.Errorf("theorem1: %w", err)
	}
	rep.Cases = append(rep.Cases, c1)
	c2, err := theoremCase(fmt.Sprintf("theorem2-n%d", obsN), cycles.Theorem2)
	if err != nil {
		return nil, fmt.Errorf("theorem2: %w", err)
	}
	rep.Cases = append(rep.Cases, c2)

	// The E23 fault sweep, observed: one Recorder per strategy attached
	// through transport.Config.Probe accumulates across every embedding,
	// fault probability, and seed of the sweep, so the latency
	// histograms are per-round distributions under the same fault load
	// E23 reports delivered fractions for.
	names, embs, err := faultEmbeddings()
	if err != nil {
		return nil, err
	}
	for _, strat := range []transport.Strategy{transport.SinglePath, transport.IDA} {
		rec := obsv.NewRecorder()
		for ei, e := range embs {
			width := len(e.Paths[0])
			k := width - 1
			if k < 1 || strat == transport.SinglePath {
				k = 1
			}
			for _, p := range faultProbs {
				for seed := 1; seed <= faultSeeds; seed++ {
					sched := faults.Bernoulli(e.Host.DirectedEdges(), p, int64(seed))
					r, err := transport.SendAll(e, transport.Config{
						Strategy:   strat,
						Mode:       netsim.CutThrough,
						Flits:      faultFlits,
						K:          k,
						MaxRetries: faultRetries,
						Faults:     sched,
						Probe:      rec,
					})
					if err != nil {
						return nil, fmt.Errorf("%s/%v/p=%g/seed=%d: %w",
							names[ei], strat, p, seed, err)
					}
					_ = r // per-round series live in r.RoundStats; the recorder aggregates
				}
			}
		}
		// The transport does not surface the engine's enqueue-time peak;
		// the StepEnd-derived max is the observed stand-in here.
		rep.Cases = append(rep.Cases,
			recorderCase("e23-fault-sweep/"+strat.String(), rec, rec.QueueDepth.Max))
	}

	if rep.ProbeOnOverheadPct, err = probeOnOverhead(); err != nil {
		return nil, err
	}
	rep.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	return rep, nil
})

// runE24 renders the observability sweep: where the aggregate tables
// report means, this one reports the distributions the paper's
// congestion claims are really about.
func runE24() (*table, error) {
	rep, err := measureObsSweep()
	if err != nil {
		return nil, err
	}
	tab := &table{headers: []string{
		"case", "runs", "delivered/failed", "flit lat p50/p95/p99",
		"msg lat p50/p95/p99", "queue p95/max", "busy",
	}}
	for _, c := range rep.Cases {
		tab.addRow(
			c.Name,
			fmt.Sprintf("%d", c.Runs),
			fmt.Sprintf("%d/%d", c.Delivered, c.Failed),
			fmt.Sprintf("%d/%d/%d", c.FlitLatency.P50, c.FlitLatency.P95, c.FlitLatency.P99),
			fmt.Sprintf("%d/%d/%d", c.MsgLatency.P50, c.MsgLatency.P95, c.MsgLatency.P99),
			fmt.Sprintf("%d/%d", c.QueueDepth.P95, c.QueueDepth.Max),
			fmt.Sprintf("%.3f", c.MeanBusyFraction),
		)
	}
	tab.note("theorem cases: width-path traffic, %d flits per guest edge, cut-through, n=%d; "+
		"fault-sweep cases: the E23 configuration observed per round through transport.Config.Probe "+
		"(steps are round-relative). Attaching the Recorder cost %.1f%% on the Theorem 1 workload; "+
		"the probe-OFF overhead contract (≤2%%) is asserted in internal/netsim.",
		rep.Flits, obsN, rep.ProbeOnOverheadPct)
	return tab, nil
}

func writeObsvJSON(path string) error {
	rep, err := measureObsSweep()
	if err != nil {
		return err
	}
	out := *rep
	out.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	out.Env = currentEnv()
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTrace exports one representative run as a JSONL event trace:
// the Theorem 1 (n=8) width-path workload, per-flit move events
// included.
func writeTrace(path string) error {
	e, err := cycles.Theorem1(8)
	if err != nil {
		return err
	}
	msgs, err := traffic.WidthPathMessages(e, 8)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tw := obsv.NewTraceWriter(f)
	if _, err := netsim.SimulateProbed(msgs, netsim.CutThrough, tw); err != nil {
		return err
	}
	return tw.Flush()
}
