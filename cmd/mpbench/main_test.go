package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"multipath/internal/obsv"
)

// The open-loop sweeps default to Q_12..Q_20 hosts — minutes of wall
// clock that the regression gate does not need.
func init() {
	// The E26 open-loop sweep shrinks to one small host, two loads,
	// and short traces; the code paths are identical.
	trafficDims = []int{10}
	trafficEdges = 16
	trafficLoads = []float64{0.1, 0.8}
	trafficN = 1500
	trafficReps = 1
	trickleN = 300
	// The E27 whole-cube sweep shrinks to Q_10 with a small arrival
	// budget; the fan-out and curve paths are identical.
	olDims = []int{10}
	olLoads = []float64{0.2, 0.9}
	olNMax = 2000
	// The E29 strategy race shrinks to Q_10, two loads, and short
	// traces; every contender, fabric, and pattern still runs.
	raceDims = []int{10}
	raceSources = 256
	raceLoads = []float64{0.2, 1.2}
	raceN = 800
}

// Every experiment must run cleanly and produce a non-trivial table;
// this is the regression gate for EXPERIMENTS.md regeneration. Running
// through runExperiments with parallelism on also exercises the
// worker-pool path end to end.
func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	for _, o := range runExperiments(experimentList(), true) {
		if o.err != nil {
			t.Errorf("%s: %v", o.exp.id, o.err)
			continue
		}
		tab := o.tab
		if tab.id != o.exp.id {
			t.Errorf("%s: outcome carries table id %q", o.exp.id, tab.id)
		}
		if len(tab.rows) == 0 {
			t.Errorf("%s: empty table", o.exp.id)
		}
		for _, r := range tab.rows {
			if len(r) != len(tab.headers) {
				t.Errorf("%s: ragged row %v vs headers %v", o.exp.id, r, tab.headers)
			}
		}
	}
}

// Parallel scheduling must not change any experiment's content. E20 is
// excluded because its cells are wall-clock measurements; everything
// else is deterministic simulation output.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	var exps []experiment
	for _, e := range experimentList() {
		switch e.id {
		case "E1", "E7", "E12", "E17", "E18", "E19":
			exps = append(exps, e)
		}
	}
	serial := runExperiments(exps, false)
	par := runExperiments(exps, true)
	for i := range exps {
		if serial[i].err != nil || par[i].err != nil {
			t.Fatalf("%s: serial err %v, parallel err %v", exps[i].id, serial[i].err, par[i].err)
		}
		s, p := serial[i].tab, par[i].tab
		if !reflect.DeepEqual(s.rows, p.rows) || !reflect.DeepEqual(s.headers, p.headers) {
			t.Errorf("%s: parallel table differs from serial\nserial: %v\nparallel: %v",
				exps[i].id, s.rows, p.rows)
		}
	}
}

// The JSON report must round-trip every outcome and record a measured
// engine speedup.
func TestWriteBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var exps []experiment
	for _, e := range experimentList() {
		if e.id == "E1" || e.id == "E17" {
			exps = append(exps, e)
		}
	}
	outs := runExperiments(exps, true)
	sp := measureEngineSpeedup()
	if sp.Speedup <= 1 {
		t.Errorf("engine speedup %.2fx not > 1x (ref %.1fms, engine %.1fms)",
			sp.Speedup, sp.ReferenceMS, sp.EngineMS)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeBenchJSON(path, outs, sp, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != len(exps) {
		t.Fatalf("report has %d experiments, want %d", len(rep.Experiments), len(exps))
	}
	for i, be := range rep.Experiments {
		if be.ID != exps[i].id {
			t.Errorf("experiment %d: id %q, want %q", i, be.ID, exps[i].id)
		}
		if be.Error == "" && len(be.Rows) == 0 {
			t.Errorf("%s: no rows recorded", be.ID)
		}
	}
	if rep.EngineSpeedup == nil || rep.EngineSpeedup.Speedup != sp.Speedup {
		t.Errorf("speedup not recorded: %+v", rep.EngineSpeedup)
	}
	checkEnv(t, rep.Env)
}

// checkEnv asserts the environment block every BENCH_*.json now
// carries: wall-clock cells are unreadable without knowing the CPU
// budget behind the workers.
func checkEnv(t *testing.T, env benchEnv) {
	t.Helper()
	if env.GoMaxProcs < 1 || env.NumCPU < 1 {
		t.Errorf("env not recorded: %+v", env)
	}
}

// forEachIndex visits every index exactly once, serially or across
// more workers than the host has CPUs.
func TestForEachIndex(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, parallel := range []bool{false, true} {
		for _, n := range []int{0, 1, 3, 37} {
			hits := make([]int, n)
			forEachIndex(n, workerCount(parallel), func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("parallel=%v n=%d: index %d visited %d times", parallel, n, i, h)
				}
			}
		}
	}
}

// E27's fan-out across load points changes no value: the parallel
// sweep equals the serial one case by case, point by point.
func TestWholeCubeSweepParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	serial, err := wholeCubeSweep(false)
	if err != nil {
		t.Fatal(err)
	}
	par, err := wholeCubeSweep(true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Fatalf("parallel sweep differs from serial:\nparallel %+v\nserial   %+v", par, serial)
	}
}

// The construct report must record the arena construction engine's
// telemetry: allocation counts per build, the arena-vs-retained
// comparison at n = 16, and the raised-GOMAXPROCS build sweep.
func TestWriteConstructJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds n=16 embeddings repeatedly")
	}
	path := filepath.Join(t.TempDir(), "construct.json")
	if err := writeConstructJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep constructReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	names, _ := constructEmbeddings()
	if len(rep.Cases) != len(names) {
		t.Fatalf("report has %d cases, want %d", len(rep.Cases), len(names))
	}
	for _, c := range rep.Cases {
		if c.BuildAllocs == 0 {
			t.Errorf("%s: build_allocs not recorded", c.Name)
		}
	}
	if len(rep.BuildSpeedups) != 3 {
		t.Fatalf("report has %d build speedups, want 3", len(rep.BuildSpeedups))
	}
	for _, s := range rep.BuildSpeedups {
		if s.AllocImprovement <= 1 {
			t.Errorf("%s: arena allocations (%d) not below retained (%d)",
				s.Case, s.ArenaBuildAllocs, s.RetainedBuildAllocs)
		}
		// Wall-clock comparison only holds without race instrumentation,
		// which inflates the arena path's pointer writes.
		if !raceDetectorOn && s.ToVerifiedSpeedup <= 1 {
			t.Errorf("%s: build-to-verified %.2fx not faster than retained (%.1fms vs %.1fms)",
				s.Case, s.ToVerifiedSpeedup, s.ArenaToVerifiedMS, s.RetainedToVerifiedMS)
		}
	}
	if rep.MPGoMaxProcs < 2 || len(rep.MPBuilds) != len(names) {
		t.Errorf("mp sweep: gomaxprocs %d, %d builds (want %d)",
			rep.MPGoMaxProcs, len(rep.MPBuilds), len(names))
	}
	checkEnv(t, rep.Env)
}

// The fault-sweep report must carry one series per embedding×strategy,
// a point per probability, and the headline separation: at every p,
// averaged delivered fraction under IDA is at least the single-path
// one, and every series is monotone non-increasing in p.
func TestWriteFaultsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fault sweep")
	}
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := writeFaultsJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep faultReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	names, _, err := faultEmbeddings()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 2*len(names) {
		t.Fatalf("report has %d series, want %d", len(rep.Series), 2*len(names))
	}
	byKey := map[string]faultSeries{}
	for _, s := range rep.Series {
		if len(s.Points) != len(faultProbs) {
			t.Fatalf("%s/%s: %d points, want %d", s.Embedding, s.Strategy, len(s.Points), len(faultProbs))
		}
		prev := 2.0
		for i, pt := range s.Points {
			if pt.P != faultProbs[i] {
				t.Errorf("%s/%s point %d: p=%g, want %g", s.Embedding, s.Strategy, i, pt.P, faultProbs[i])
			}
			if pt.DeliveredFraction > prev {
				t.Errorf("%s/%s: delivered fraction rose at p=%g: %g > %g",
					s.Embedding, s.Strategy, pt.P, pt.DeliveredFraction, prev)
			}
			prev = pt.DeliveredFraction
			if pt.DeliveredFraction > 0 && pt.MeanLatency <= 0 {
				t.Errorf("%s/%s p=%g: delivered but no latency recorded", s.Embedding, s.Strategy, pt.P)
			}
			// -1 is the documented "no data" sentinel: nothing
			// delivered must never read as latency 0.
			if pt.DeliveredFraction == 0 && pt.MeanLatency != -1 {
				t.Errorf("%s/%s p=%g: nothing delivered but mean latency %g, want -1",
					s.Embedding, s.Strategy, pt.P, pt.MeanLatency)
			}
		}
		byKey[s.Embedding+"/"+s.Strategy] = s
	}
	for _, name := range names {
		single, ida := byKey[name+"/single-path"], byKey[name+"/ida"]
		for i := range faultProbs {
			if ida.Points[i].DeliveredFraction < single.Points[i].DeliveredFraction {
				t.Errorf("%s p=%g: IDA delivered %g below single-path %g",
					name, faultProbs[i], ida.Points[i].DeliveredFraction,
					single.Points[i].DeliveredFraction)
			}
		}
		for _, s := range []faultSeries{single, ida} {
			for _, pt := range s.Points {
				if pt.Reroutes > pt.Retries {
					t.Errorf("%s/%s p=%g: reroutes %d exceed retries %d",
						name, s.Strategy, pt.P, pt.Reroutes, pt.Retries)
				}
				if pt.P == 0 && (pt.Retries != 0 || pt.DeadlineMisses != 0) {
					t.Errorf("%s/%s: clean fabric reports healing work: %+v", name, s.Strategy, pt)
				}
			}
		}
	}
	checkEnv(t, rep.Env)

	// The E28 self-healing section: one series per schedule × backoff,
	// a point per (p, rate), delivered fraction at or above the
	// single-path closed-loop baseline at every fault rate.
	heal := rep.SelfHeal
	if heal == nil {
		t.Fatal("no self_heal section in the faults report")
	}
	if len(heal.Series) != 4 {
		t.Fatalf("self-heal has %d series, want 4 (2 schedules x 2 backoffs)", len(heal.Series))
	}
	baseline := byKey[heal.Embedding+"/single-path"]
	if baseline.Strategy == "" {
		t.Fatalf("no closed-loop baseline series for %q", heal.Embedding)
	}
	baseByP := map[float64]float64{}
	for _, pt := range baseline.Points {
		baseByP[pt.P] = pt.DeliveredFraction
	}
	wantPoints := len(faultProbs) * len(heal.Rates)
	for _, s := range heal.Series {
		if len(s.Points) != wantPoints {
			t.Fatalf("self-heal %s/%s: %d points, want %d", s.Schedule, s.Backoff, len(s.Points), wantPoints)
		}
		for _, pt := range s.Points {
			if pt.DeliveredFraction < baseByP[pt.P] {
				t.Errorf("self-heal %s/%s p=%g rate=%d: delivered %g below single-path baseline %g",
					s.Schedule, s.Backoff, pt.P, pt.Rate, pt.DeliveredFraction, baseByP[pt.P])
			}
			if pt.DeadlineMissFraction < 0 || pt.DeadlineMissFraction > 1 {
				t.Errorf("self-heal %s/%s p=%g rate=%d: miss fraction %g out of [0,1]",
					s.Schedule, s.Backoff, pt.P, pt.Rate, pt.DeadlineMissFraction)
			}
			if pt.Reroutes > pt.Retries {
				t.Errorf("self-heal %s/%s p=%g rate=%d: reroutes %d exceed retries %d",
					s.Schedule, s.Backoff, pt.P, pt.Rate, pt.Reroutes, pt.Retries)
			}
			if pt.P == 0 {
				if pt.Retries != 0 || pt.Abandoned != 0 || pt.Repaired.N != 0 {
					t.Errorf("self-heal %s/%s rate=%d: clean fabric reports healing work: %+v",
						s.Schedule, s.Backoff, pt.Rate, pt)
				}
			} else if pt.Repaired.N > 0 && pt.Repaired.P99 < pt.Latency.P50 {
				t.Errorf("self-heal %s/%s p=%g rate=%d: post-repair p99 %d below overall p50 %d",
					s.Schedule, s.Backoff, pt.P, pt.Rate, pt.Repaired.P99, pt.Latency.P50)
			}
		}
	}
}

// Paper-vs-measured agreement spot checks through the experiment layer.
func TestE2ReportsCostThree(t *testing.T) {
	tab, err := runE2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.rows {
		if r[3] != "3" {
			t.Errorf("n=%s: synchronized cost %s", r[0], r[3])
		}
	}
}

func TestE9ReportsCongestionTwo(t *testing.T) {
	tab, err := runE9()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.rows {
		if r[4] != "2" {
			t.Errorf("n=%s: Theorem 3 congestion %s", r[0], r[4])
		}
	}
}

func TestE16AblationsCollide(t *testing.T) {
	tab, err := runE16()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.rows {
		ablated := strings.Contains(r[1], "ablated")
		collides := strings.Contains(r[4], "COLLIDES")
		if ablated != collides {
			t.Errorf("labeler %q: schedule %q", r[1], r[4])
		}
	}
}

func TestTablePrinting(t *testing.T) {
	tab := &table{
		id: "T", title: "test", headers: []string{"a", "bb"},
	}
	tab.addRow("1", "2")
	tab.note("hello %d", 7)
	tab.print() // smoke: must not panic
	if len(tab.notes) != 1 || tab.notes[0] != "hello 7" {
		t.Errorf("notes %v", tab.notes)
	}
}

// BENCH_obsv.json shape: every case carries populated latency and
// queue-depth distributions with ordered quantiles, and the required
// workloads (Theorem 1/2 at n=16, the E23 sweep per strategy) are all
// present.
func TestWriteObsvJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("observability sweep is slow")
	}
	path := filepath.Join(t.TempDir(), "obsv.json")
	if err := writeObsvJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obsvReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"theorem1-n16":                false,
		"theorem2-n16":                false,
		"e23-fault-sweep/single-path": false,
		"e23-fault-sweep/ida":         false,
	}
	checkSummary := func(name, which string, s obsvSummaryView) {
		if s.N == 0 {
			t.Errorf("%s: empty %s distribution", name, which)
			return
		}
		if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
			t.Errorf("%s: %s quantiles out of order: %+v", name, which, s)
		}
	}
	for _, c := range rep.Cases {
		if _, ok := want[c.Name]; !ok {
			t.Errorf("unexpected case %q", c.Name)
			continue
		}
		want[c.Name] = true
		if c.Runs < 1 || c.Delivered == 0 {
			t.Errorf("%s: degenerate case %+v", c.Name, c)
		}
		checkSummary(c.Name, "flit latency", summaryView(c.FlitLatency))
		checkSummary(c.Name, "message latency", summaryView(c.MsgLatency))
		if c.QueueDepth.N == 0 || len(c.QueueDepthBuckets) == 0 {
			t.Errorf("%s: missing queue-depth histogram", c.Name)
		}
		var bucketN uint64
		for _, b := range c.QueueDepthBuckets {
			bucketN += b.Count
		}
		if bucketN != c.QueueDepth.N {
			t.Errorf("%s: queue-depth buckets sum to %d, N=%d", c.Name, bucketN, c.QueueDepth.N)
		}
		if strings.HasPrefix(c.Name, "theorem") {
			if c.Failed != 0 || c.DroppedFlits != 0 {
				t.Errorf("%s: fault-free workload lost traffic: %+v", c.Name, c)
			}
			if c.MaxLinkQueue < c.QueueDepth.Max {
				t.Errorf("%s: engine peak queue %d below StepEnd max %d",
					c.Name, c.MaxLinkQueue, c.QueueDepth.Max)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("case %q missing from report", name)
		}
	}
	checkEnv(t, rep.Env)
}

// BENCH_traffic.json shape: one case per embedding×dimension with a
// point per swept load, ordered quantiles, a detected saturation point,
// and both speedup records showing the open-loop engine ahead of the
// naive per-step baseline.
func TestWriteTrafficJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the open-loop sweep")
	}
	path := filepath.Join(t.TempDir(), "traffic.json")
	if err := writeTrafficJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep trafficReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cases) != 2*len(trafficDims) {
		t.Fatalf("report has %d cases, want %d (theorem1+theorem2 per dim)", len(rep.Cases), 2*len(trafficDims))
	}
	for _, c := range rep.Cases {
		if c.Capacity <= 0 || c.Templates == 0 || c.MeanFlitHops <= 0 {
			t.Errorf("%s Q_%d: degenerate case %+v", c.Embedding, c.Dims, c)
		}
		if len(c.Points) != len(trafficLoads) {
			t.Fatalf("%s Q_%d: %d points, want %d", c.Embedding, c.Dims, len(c.Points), len(trafficLoads))
		}
		for i, pt := range c.Points {
			if pt.Load != trafficLoads[i] {
				t.Errorf("%s Q_%d point %d: load %g, want %g", c.Embedding, c.Dims, i, pt.Load, trafficLoads[i])
			}
			if pt.Delivered != pt.Arrivals {
				t.Errorf("%s Q_%d load %g: delivered %d of %d", c.Embedding, c.Dims, pt.Load, pt.Delivered, pt.Arrivals)
			}
			s := pt.Latency
			if s.N == 0 || !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
				t.Errorf("%s Q_%d load %g: bad latency summary %+v", c.Embedding, c.Dims, pt.Load, s)
			}
			if uint64(pt.Arrivals) <= s.N {
				t.Errorf("%s Q_%d load %g: warm-up not excluded (%d observed of %d)",
					c.Embedding, c.Dims, pt.Load, s.N, pt.Arrivals)
			}
		}
		// Latency must not improve as load rises past the first point.
		if c.Points[len(c.Points)-1].Latency.Mean < c.Points[0].Latency.Mean {
			t.Errorf("%s Q_%d: latency fell with load: %+v", c.Embedding, c.Dims, c.Points)
		}
		if c.SaturationLoad <= 0 || c.SaturationThroughput <= 0 {
			t.Errorf("%s Q_%d: no saturation point detected: %+v", c.Embedding, c.Dims, c)
		}
	}
	if len(rep.Speedups) != 2 {
		t.Fatalf("report has %d speedup records, want 2", len(rep.Speedups))
	}
	for _, sp := range rep.Speedups {
		if sp.EngineMS <= 0 || sp.NaiveMS <= 0 {
			t.Errorf("%s: no timing recorded: %+v", sp.Case, sp)
		}
		// The leap-clock trickle case must win even at test scale; the
		// full-size ≥5x acceptance bar is asserted when BENCH_traffic.json
		// is regenerated (make bench), not at the shrunken test sizes.
		if strings.Contains(sp.Case, "trickle") && sp.Speedup <= 1 {
			t.Errorf("%s: open-loop engine not faster than naive baseline: %.2fx (%.2fms vs %.2fms)",
				sp.Case, sp.Speedup, sp.EngineMS, sp.NaiveMS)
		}
	}
	// The E27 whole_cube_sweep section: one whole-cube case per
	// embedding×dimension with a Poisson and an MMPP curve.
	if len(rep.WholeCubeSweep) != 2*len(olDims) {
		t.Fatalf("whole-cube sweep has %d cases, want %d (theorem1+theorem2 per dim)", len(rep.WholeCubeSweep), 2*len(olDims))
	}
	for _, c := range rep.WholeCubeSweep {
		if c.Capacity <= 0 || c.Templates == 0 || c.Links == 0 || c.MeanFlitHops <= 0 {
			t.Errorf("%s Q_%d: degenerate whole-cube case %+v", c.Embedding, c.Dims, c)
		}
		if len(c.Curves) != 2 || c.Curves[0].Arrival != "poisson" || c.Curves[1].Arrival != "mmpp" {
			t.Fatalf("%s Q_%d: want a poisson and an mmpp curve, got %+v", c.Embedding, c.Dims, c.Curves)
		}
		for _, curve := range c.Curves {
			if len(curve.Points) != len(olLoads) {
				t.Fatalf("%s Q_%d %s: %d points, want %d", c.Embedding, c.Dims, curve.Arrival, len(curve.Points), len(olLoads))
			}
			for i, pt := range curve.Points {
				if pt.Load != olLoads[i] {
					t.Errorf("%s Q_%d %s point %d: load %g, want %g", c.Embedding, c.Dims, curve.Arrival, i, pt.Load, olLoads[i])
				}
				if pt.Delivered != pt.Arrivals {
					t.Errorf("%s Q_%d %s load %g: delivered %d of %d", c.Embedding, c.Dims, curve.Arrival, pt.Load, pt.Delivered, pt.Arrivals)
				}
				s := pt.Latency
				if s.N == 0 || !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
					t.Errorf("%s Q_%d %s load %g: bad latency summary %+v", c.Embedding, c.Dims, curve.Arrival, pt.Load, s)
				}
			}
			if curve.SaturationLoad <= 0 {
				t.Errorf("%s Q_%d %s: no saturation point detected", c.Embedding, c.Dims, curve.Arrival)
			}
		}
	}
	// The E29 strategy_race section: one case per pattern×dimension,
	// a clean and a faulty fabric each racing all five contenders over
	// every swept load, with conservation and seed-replay on record —
	// and the headline separation: feedback-adaptive routing beats
	// deterministic dimension-order on the clean hotspot's tail.
	race := rep.StrategyRace
	if race == nil {
		t.Fatal("no strategy_race section in the traffic report")
	}
	if race.Windows != raceWindows || len(race.Loads) != len(raceLoads) {
		t.Fatalf("race env mismatch: %d windows, %d loads", race.Windows, len(race.Loads))
	}
	if len(race.Cases) != 5*len(raceDims) {
		t.Fatalf("race has %d cases, want %d (5 patterns per dim)", len(race.Cases), 5*len(raceDims))
	}
	var hotspotClean []raceCurve
	for _, c := range race.Cases {
		if c.Capacity <= 0 || c.MeanFlitHops <= 0 || c.Pairs == 0 || c.PairsFrom < c.Pairs {
			t.Errorf("race %s Q_%d: degenerate case %+v", c.Pattern, c.Dims, c)
		}
		if len(c.Fabrics) != 2 || c.Fabrics[0].Fabric != "clean" || c.Fabrics[1].Fabric != "faulty" {
			t.Fatalf("race %s Q_%d: want clean+faulty fabrics, got %+v", c.Pattern, c.Dims, c.Fabrics)
		}
		if c.Fabrics[1].DeadLinks == 0 {
			t.Errorf("race %s Q_%d: faulty fabric drew no dead links", c.Pattern, c.Dims)
		}
		for _, fab := range c.Fabrics {
			if len(fab.Curves) != len(raceStrategyNames) {
				t.Fatalf("race %s Q_%d %s: %d curves, want %d", c.Pattern, c.Dims, fab.Fabric, len(fab.Curves), len(raceStrategyNames))
			}
			for ci, cv := range fab.Curves {
				if cv.Strategy != raceStrategyNames[ci] {
					t.Errorf("race %s Q_%d %s curve %d: strategy %q, want %q", c.Pattern, c.Dims, fab.Fabric, ci, cv.Strategy, raceStrategyNames[ci])
				}
				if !cv.Replayed {
					t.Errorf("race %s Q_%d %s %s: first point not replay-verified", c.Pattern, c.Dims, fab.Fabric, cv.Strategy)
				}
				if len(cv.Points) != len(raceLoads) {
					t.Fatalf("race %s Q_%d %s %s: %d points, want %d", c.Pattern, c.Dims, fab.Fabric, cv.Strategy, len(cv.Points), len(raceLoads))
				}
				for i, pt := range cv.Points {
					if pt.Load != raceLoads[i] || pt.Arrivals != raceN {
						t.Errorf("race %s Q_%d %s %s point %d: load %g arrivals %d, want %g/%d",
							c.Pattern, c.Dims, fab.Fabric, cv.Strategy, i, pt.Load, pt.Arrivals, raceLoads[i], raceN)
					}
					if !pt.Conserved {
						t.Errorf("race %s Q_%d %s %s load %g: conservation unchecked", c.Pattern, c.Dims, fab.Fabric, cv.Strategy, pt.Load)
					}
					if pt.Delivered+pt.Failed != pt.Arrivals {
						t.Errorf("race %s Q_%d %s %s load %g: delivered %d + failed %d != %d arrivals",
							c.Pattern, c.Dims, fab.Fabric, cv.Strategy, pt.Load, pt.Delivered, pt.Failed, pt.Arrivals)
					}
					if fab.Fabric == "clean" && pt.Failed != 0 {
						t.Errorf("race %s Q_%d clean %s load %g: %d messages failed on a clean fabric",
							c.Pattern, c.Dims, cv.Strategy, pt.Load, pt.Failed)
					}
					s := pt.Latency
					if s.N == 0 || uint64(pt.Arrivals) <= s.N || !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
						t.Errorf("race %s Q_%d %s %s load %g: bad latency summary %+v",
							c.Pattern, c.Dims, fab.Fabric, cv.Strategy, pt.Load, s)
					}
				}
			}
		}
		if c.Pattern == "hotspot" {
			hotspotClean = c.Fabrics[0].Curves
		}
	}
	byName := map[string]raceCurve{}
	for _, cv := range hotspotClean {
		byName[cv.Strategy] = cv
	}
	top := len(raceLoads) - 1
	ada, dim := byName["adaptive"], byName["dimorder"]
	if len(ada.Points) == 0 || len(dim.Points) == 0 {
		t.Fatal("hotspot clean curves missing adaptive or dimorder")
	}
	if ada.Points[top].Latency.P99 >= dim.Points[top].Latency.P99 {
		t.Errorf("adaptive p99 %d not below dimorder p99 %d on the clean hotspot at load %g",
			ada.Points[top].Latency.P99, dim.Points[top].Latency.P99, raceLoads[top])
	}
	checkEnv(t, rep.Env)
}

// obsvSummaryView/summaryView keep the quantile checks readable
// without importing obsv's Summary field-by-field at each call site.
type obsvSummaryView struct {
	N             uint64
	P50, P95, P99 int
	Max           int
}

func summaryView(s obsv.Summary) obsvSummaryView {
	return obsvSummaryView{N: s.N, P50: s.P50, P95: s.P95, P99: s.P99, Max: s.Max}
}

// The -trace export is valid JSONL with the expected event kinds.
func TestWriteTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeTrace(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		kind, _ := ev["ev"].(string)
		counts[kind]++
	}
	if counts["begin"] != 1 || counts["move"] == 0 || counts["step"] == 0 || counts["done"] == 0 {
		t.Errorf("unexpected event mix: %v", counts)
	}
}
