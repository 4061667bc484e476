// Command mpbench regenerates every experiment table in EXPERIMENTS.md:
// for each quantitative claim of Greenberg & Bhatt it prints the
// paper's predicted value next to the value measured on this build.
//
// The suites run concurrently across GOMAXPROCS workers (each
// experiment's simulations are deterministic, so the tables are
// identical to a serial run — only wall-clock cells vary) and the
// output order is fixed regardless of scheduling. Alongside the
// markdown tables, four machine-readable records are written:
// BENCH_netsim.json (per-experiment wall-clock plus the dense netsim
// engine's speedup over the retained seed simulator),
// BENCH_construct.json (the dense metric engine in internal/core:
// build/verify wall-clock per construction and the warm speedup over
// the map-based reference verifiers at n = 16), and BENCH_faults.json
// (the E23 fault sweep: delivered fraction and end-to-end latency
// versus link-fault probability for single-path versus IDA transport),
// and BENCH_obsv.json (the observability layer: flit/message latency
// and per-link queue-depth distributions with p50/p95/p99 summaries
// for the Theorem 1/2 workloads at n = 16 and the E23 sweep), and
// BENCH_traffic.json (the E26 open-loop sweep: steady-state latency
// percentiles versus offered load with saturation throughput, plus the
// open-loop engine's measured speedup over the naive per-step
// baseline, and the E27 whole_cube_sweep: whole-cube saturation
// curves), giving future changes a perf trajectory to compare against.
//
// Usage:
//
//	mpbench                  # run all experiments, write both JSON reports
//	mpbench -run E2          # run one experiment by id
//	mpbench -list            # list experiment ids
//	mpbench -parallel=false  # force serial execution (suites and E27's load points)
//	mpbench -json ""         # skip the netsim JSON report
//	mpbench -construct-json "" # skip the metric-engine JSON report
//	mpbench -faults-json ""  # skip the fault-tolerance sweep report
//	mpbench -obs-json ""     # skip the observability distribution report
//	mpbench -trace t.jsonl   # export a JSONL event trace of a reference run
//	mpbench -load 0.1,0.5,1.0 -arrival mmpp  # shape the E26 offered-load sweep
//	mpbench -traffic-json ""  # skip the open-loop sweep report
//	mpbench -cpuprofile cpu.prof -memprofile mem.prof  # pprof the run
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// table is one experiment's output.
type table struct {
	id      string
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

func (t *table) addRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) note(format string, args ...interface{}) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

func (t *table) print() {
	fmt.Printf("\n### %s — %s\n\n", t.id, t.title)
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("| " + strings.Join(parts, " | ") + " |")
	}
	line(t.headers)
	seps := make([]string, len(t.headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
	for _, n := range t.notes {
		fmt.Println("\n> " + n)
	}
}

// parseDims parses the -traffic-dims flag ("16,20" → [16 20]).
func parseDims(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var dims []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("bad dimension %q", part)
		}
		dims = append(dims, n)
	}
	return dims, nil
}

type experiment struct {
	id    string
	title string
	run   func() (*table, error)
}

// outcome is one experiment's completed run.
type outcome struct {
	exp  experiment
	tab  *table
	err  error
	wall time.Duration
}

func experimentList() []experiment {
	return []experiment{
		{"E1", "Gray-code baseline: m-packet cost is m (Fig. 1, §2)", runE1},
		{"E2", "Theorem 1: width ~n/2, synchronized cost 3, load 1", runE2},
		{"E3", "Theorem 2: load 2, cost 3, full link use at n≡0 mod 4", runE3},
		{"E4", "Lemma 3: width ≤ ⌊n/2⌋ at cost 3", runE4},
		{"E5", "Grid relaxation phase: Θ(M/(N·logN)) vs Θ(M/N) (§2, §8.3)", runE5},
		{"E6", "Corollaries 1-2: k-axis grids, squaring", runE6},
		{"E7", "Lemma 1 substrate: Hamiltonian decompositions of Q_n", runE7},
		{"E8", "Lemma 4: CCC in Q_{n+⌈log n⌉}, dilation 1 (even) / 2 (odd)", runE8},
		{"E9", "Theorem 3: n CCC copies, edge-congestion 2 vs naive n/log n", runE9},
		{"E10", "Theorem 4: X(G) width-n, n-packet cost c+2δ", runE10},
		{"E11", "Theorem 5 & §6.2: complete and arbitrary binary trees", runE11},
		{"E12", "§7: bit-serial routing, Θ(nM) vs O(M) on CCC copies", runE12},
		{"E13", "IDA fault tolerance over disjoint paths (§1)", runE13},
		{"E14", "Lemma 9: large-copy CCC/FFT/butterfly", runE14},
		{"E15", "§8.2: multi-path vs multi-copy vs large-copy", runE15},
		{"E16", "Ablation: moment labeling vs naive cycle assignment", runE16},
		{"E17", "Switching modes: store-and-forward vs cut-through vs wormhole", runE17},
		{"E18", "Adversarial permutations: e-cube vs Valiant random intermediate", runE18},
		{"E19", "Broadcast over Lemma 1's Hamiltonian cycles", runE19},
		{"E20", "Scalability: build+verify wall time at large n", runE20},
		{"E21", "§1 constant-pinout model: wide grid vs narrow hypercube", runE21},
		{"E22", "Naive per-edge widening vs Theorem 1's coordination", runE22},
		{"E23", "Measured fault tolerance: single path vs IDA under link faults", runE23},
		{"E24", "Observability: latency and queue-depth distributions via probes", runE24},
		{"E26", "Open-loop steady state: latency vs offered load, saturation throughput", runE26},
		{"E27", "Whole-cube open loop: saturation sweeps at million-node scale", runE27},
		{"E28", "Self-healing transport: degradation curves under live faults", runE28},
		{"E29", "Strategy race: dimorder/Valiant/minimal/adaptive vs paper multipath", runE29},
	}
}

// parseLoads parses the -load flag ("0.1,0.5" → [0.1 0.5]).
func parseLoads(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var loads []float64
	for _, part := range strings.Split(s, ",") {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%g", &v); err != nil || v <= 0 {
			return nil, fmt.Errorf("bad load %q", part)
		}
		loads = append(loads, v)
	}
	return loads, nil
}

// parallelRuns is the -parallel flag: whether independent runs inside
// an experiment (E27's load points) may use more than one worker.
var parallelRuns = true

// workerCount is the worker count the -parallel setting allows:
// GOMAXPROCS, or 1.
func workerCount(parallel bool) int {
	if parallel {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// forEachIndex calls fn(i) for every i in [0, n) on up to workers
// goroutines that claim indices in order (one worker visits them in
// index order). fn writes its result to slot i of a caller-owned
// slice, so what the caller reads back never depends on scheduling.
func forEachIndex(n, workers int, fn func(i int)) {
	workers = max(min(workers, n), 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runExperiments executes the given suites — serially in order, or
// across GOMAXPROCS workers — and returns outcomes in input order so
// downstream printing is deterministic either way.
func runExperiments(exps []experiment, parallel bool) []outcome {
	outs := make([]outcome, len(exps))
	forEachIndex(len(exps), workerCount(parallel), func(i int) {
		start := time.Now()
		tab, err := exps[i].run()
		if tab != nil {
			tab.id, tab.title = exps[i].id, exps[i].title
		}
		outs[i] = outcome{exp: exps[i], tab: tab, err: err, wall: time.Since(start)}
	})
	return outs
}

func main() {
	runID := flag.String("run", "", "run only the experiment with this id (e.g. E2)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Bool("parallel", true, "run experiment suites and E27's load points concurrently (output is unchanged)")
	jsonPath := flag.String("json", "BENCH_netsim.json", "write per-experiment wall-clock + metrics JSON here (empty to disable)")
	constructPath := flag.String("construct-json", "BENCH_construct.json", "write the dense metric-engine benchmark JSON here (empty to disable)")
	faultsPath := flag.String("faults-json", "BENCH_faults.json", "write the fault-tolerance sweep JSON here (empty to disable)")
	obsPath := flag.String("obs-json", "BENCH_obsv.json", "write the observability (latency/queue-depth distribution) JSON here (empty to disable)")
	tracePath := flag.String("trace", "", "write a JSONL event trace of the Theorem 1 (n=8) width-path run here")
	trafficPath := flag.String("traffic-json", "BENCH_traffic.json", "write the E26 open-loop latency-vs-load sweep JSON here (empty to disable)")
	loadFlag := flag.String("load", "", "comma-separated offered loads for the E26 sweep (fractions of window capacity, e.g. 0.1,0.5,1.0)")
	arrivalFlag := flag.String("arrival", trafficArrival, "E26 arrival process: poisson or mmpp")
	trafficDimsFlag := flag.String("traffic-dims", "", "comma-separated host dimensions for the E26/E27/E29 open-loop sweeps (defaults 12,16 / 16,20 / 12,16)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run here")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken at exit) here")
	flag.Parse()

	parallelRuns = *parallel
	if loads, err := parseLoads(*loadFlag); err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		os.Exit(1)
	} else if len(loads) > 0 {
		trafficLoads = loads
	}
	if *arrivalFlag != "poisson" && *arrivalFlag != "mmpp" {
		fmt.Fprintf(os.Stderr, "arrival: unknown process %q (want poisson or mmpp)\n", *arrivalFlag)
		os.Exit(1)
	}
	trafficArrival = *arrivalFlag
	if dims, err := parseDims(*trafficDimsFlag); err != nil {
		fmt.Fprintf(os.Stderr, "traffic-dims: %v\n", err)
		os.Exit(1)
	} else if len(dims) > 0 {
		trafficDims = dims
		olDims = dims
		raceDims = dims
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	exps := experimentList()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}

	selected := exps[:0:0]
	for _, e := range exps {
		if *runID == "" || strings.EqualFold(*runID, e.id) {
			selected = append(selected, e)
		}
	}

	outs := runExperiments(selected, *parallel)
	fmt.Println("# mpbench — paper-vs-measured experiment tables")
	failed := 0
	for _, o := range outs {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", o.exp.id, o.err)
			failed++
			continue
		}
		o.tab.print()
	}
	if *jsonPath != "" {
		sp := measureEngineSpeedup()
		if err := writeBenchJSON(*jsonPath, outs, sp, *parallel); err != nil {
			fmt.Fprintf(os.Stderr, "bench json: %v\n", err)
			failed++
		} else {
			fmt.Printf("\nwrote %s (netsim engine %.1fx over seed simulator on the E17 sweep)\n", *jsonPath, sp.Speedup)
		}
	}
	if *constructPath != "" {
		if err := writeConstructJSON(*constructPath); err != nil {
			fmt.Fprintf(os.Stderr, "construct json: %v\n", err)
			failed++
		}
	}
	if *faultsPath != "" {
		if err := writeFaultsJSON(*faultsPath); err != nil {
			fmt.Fprintf(os.Stderr, "faults json: %v\n", err)
			failed++
		} else {
			fmt.Printf("wrote %s (fault sweep: delivered fraction and latency vs link-fault probability)\n", *faultsPath)
		}
	}
	if *obsPath != "" {
		if err := writeObsvJSON(*obsPath); err != nil {
			fmt.Fprintf(os.Stderr, "obsv json: %v\n", err)
			failed++
		} else {
			fmt.Printf("wrote %s (observability: latency and queue-depth distributions)\n", *obsPath)
		}
	}
	if *trafficPath != "" {
		if err := writeTrafficJSON(*trafficPath); err != nil {
			fmt.Fprintf(os.Stderr, "traffic json: %v\n", err)
			failed++
		} else {
			fmt.Printf("wrote %s (open-loop latency-vs-load sweep with saturation throughput)\n", *trafficPath)
		}
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			failed++
		} else {
			fmt.Printf("wrote %s (JSONL event trace of the Theorem 1 n=8 width-path run)\n", *tracePath)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
