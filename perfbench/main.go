// Command perfbench is the repository benchmark: it runs one named
// workload against the library's exported layers, checks every output,
// and prints each metric with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (CPU time per op,
// simulator work per CPU second, memory, set-up CPU time; the wall-clock
// figures follow on "info" lines); with --trace 1 a separate traced
// phase reports per-layer self times and counts, and the spans are
// written to --spans-dir.
//
// Each workload is a closed loop: one caller goroutine issues ops back
// to back, cycling through a fixed list generated from --seed, until
// the cycles' host time adds up to --seconds. Every cycle repeats the
// same inputs, so each op is timed by its median over the cycles, and
// each later cycle must reproduce the first cycle's outputs exactly.
//
// Build and run from the repository root with perfbench/run.sh.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sizes fixes every workload parameter; fullSize is the benchmark,
// toySize the smoke test.
type sizes struct {
	raceDim, raceFlits, raceArrivals, raceWindows int

	healN                         int
	healRate                      float64
	healP                         []float64
	healBurstFrom, healBurstUntil int
	healFlits, healK, healRetries int
	healDeadline, healStepLimit   int
	healDimP, healDimLoad         float64

	constructN, crossN, drainFlits, shards int
}

// fullSize follows E28/E29, except that race ops replay 2000 arrivals
// instead of E29's 6000, which keeps one op near 50-300 ms.
var fullSize = sizes{
	raceDim: 12, raceFlits: 16, raceArrivals: 2000, raceWindows: 4,
	healN: 14, healRate: 16, healP: []float64{0.05, 0.1}, healBurstFrom: 16, healBurstUntil: 48,
	healFlits: 8, healK: 3, healRetries: 3, healDeadline: 48, healStepLimit: 5000,
	healDimP: 0.02, healDimLoad: 0.5,
	constructN: 14, crossN: 8, drainFlits: 16, shards: 2,
}

var toySize = sizes{
	raceDim: 6, raceFlits: 4, raceArrivals: 200, raceWindows: 2,
	healN: 6, healRate: 4, healP: []float64{0.05, 0.1}, healBurstFrom: 4, healBurstUntil: 12,
	healFlits: 4, healK: 2, healRetries: 3, healDeadline: 48, healStepLimit: 5000,
	healDimP: 0.02, healDimLoad: 0.5,
	constructN: 6, crossN: 6, drainFlits: 4, shards: 2,
}

// op is one closed-loop operation; run reports into o and returns an
// error only when a layer call failed.
type op struct {
	kind string
	run  func(t *tracer, o *outcome) error
}

// workload is one cycle of ops plus its once-per-run golden check.
type workload struct {
	name       string
	ops        []op
	crossCheck func() error
	// hamdecompCold is the cold Hamiltonian-decomposition time paid in
	// set-up (zero when the workload builds no construction).
	hamdecompCold time.Duration
}

var setups = map[string]func(seed int64, sz sizes) (*workload, error){
	"race-observed":    setupRace,
	"heal-faulty":      setupHeal,
	"construct-verify": setupConstruct,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	size      string
	sz        sizes
	setupRuns int
	spansDir  string
	commit    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload: race-observed, heal-faulty or construct-verify")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds (whole cycles; at least one)")
	traceFlag := fs.Int("trace", 0, "1: report per-layer metrics from a separate traced phase")
	size := fs.String("size", "full", "full, or toy for the smoke test")
	setupOnly := fs.Bool("setup-only", false, "run set-up once and print its seconds (used for set-up samples)")
	setupRuns := fs.Int("setup-runs", 15, "set-up samples; all but the first run in fresh processes")
	spansDir := fs.String("spans-dir", ".bench_build/perfbench", "directory for the traced run's span file")
	commit := fs.String("commit", "unknown", "source revision stamped into the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{workload: *workloadName, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		size: *size, setupRuns: max(*setupRuns, 1), spansDir: *spansDir, commit: *commit}
	switch o.size {
	case "full":
		o.sz = fullSize
	case "toy":
		o.sz = toySize
	default:
		fmt.Fprintf(stderr, "perfbench: unknown --size %q\n", *size)
		return 2
	}
	if _, ok := setups[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", o.workload)
		return 2
	}
	if *setupOnly {
		_, d, err := setup(o)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "setup_s %v\n", d.Seconds())
		return 0
	}
	res, err := bench(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setup generates the workload's inputs and returns them with the
// process CPU time set-up took (CPU time, like the op metrics, so that
// CPU steal on a shared host does not count).
func setup(o options) (*workload, time.Duration, error) {
	start := cpuTime()
	w, err := setups[o.workload](o.seed, o.sz)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	return w, cpuTime() - start, nil
}

// setupSample runs set-up in a fresh process, so the substrate memo
// caches start cold as they do for a user's first call.
func setupSample(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(exe, "--setup-only", "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--size", o.size).Output()
	if err != nil {
		return 0, fmt.Errorf("set-up sample: %w", err)
	}
	f := strings.Fields(string(out))
	if len(f) != 2 || f[0] != "setup_s" {
		return 0, fmt.Errorf("set-up sample: unexpected output %q", out)
	}
	return strconv.ParseFloat(f[1], 64)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner executes ops, checks them, and remembers each op's digest
// from the first cycle so every later cycle must replay it exactly.
type runner struct {
	w         *workload
	golden    []uint64
	attempted int
	failed    int
	// tamper, when set, corrupts each outcome before it is verified:
	// the smoke test's proof that a wrong result counts as failed.
	tamper func(*outcome)
	errOut io.Writer
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(r.errOut, "perfbench: %s: %s\n", r.w.name, fmt.Sprintf(format, args...))
	}
}

// runOp runs op i, returning its host time and checked outcome.
func (r *runner) runOp(i int, t *tracer) (time.Duration, *outcome) {
	op := r.w.ops[i]
	o := &outcome{}
	t.beginOp(i, op.kind)
	start := time.Now()
	err := op.run(t, o)
	d := time.Since(start)
	t.endOp()
	if r.tamper != nil {
		r.tamper(o)
	}
	r.attempted++
	switch {
	case err != nil:
		r.fail("op %d (%s): %v", i, op.kind, err)
	case o.verify() != "":
		r.fail("op %d (%s): %s", i, op.kind, o.verify())
	default:
		dg := o.digest()
		if len(r.golden) <= i {
			r.golden = append(r.golden, dg)
		} else if r.golden[i] != dg {
			r.fail("op %d (%s): replay digest %016x != first run %016x", i, op.kind, dg, r.golden[i])
		}
	}
	return d, o
}

// phase is what one measured phase saw: opMS[c*len(ops)+i] is op i's
// wall time in cycle c, and opCPU its process CPU time (all threads).
type phase struct {
	opMS     []float64
	opCPU    []float64
	cycleS   []float64
	cpu      time.Duration
	alloc    uint64
	outcomes []*outcome
}

// opMedians returns each op's median time across the cycles. Every
// cycle repeats the same inputs, so an op's spread across cycles is the
// host's noise (CPU steal on a shared machine, GC phase), which the
// median discards.
func (p *phase) opMedians(times []float64) []float64 {
	k := len(times) / len(p.cycleS)
	out := make([]float64, k)
	xs := make([]float64, len(p.cycleS))
	for i := range out {
		for c := range xs {
			xs[c] = times[c*k+i]
		}
		out[i] = median(xs)
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// measure runs whole cycles until they add up to seconds (at least
// one). between, when set, runs after each cycle, outside the timing.
func (r *runner) measure(seconds float64, t *tracer, between func()) *phase {
	p := &phase{}
	alloc0, cpu0 := totalAlloc(), cpuTime()
	for total := 0.0; total < seconds || len(p.cycleS) == 0; {
		cycle := time.Now()
		for i := range r.w.ops {
			cpu := cpuTime()
			d, o := r.runOp(i, t)
			p.opCPU = append(p.opCPU, float64(cpuTime()-cpu)/float64(time.Millisecond))
			p.opMS = append(p.opMS, float64(d)/float64(time.Millisecond))
			p.outcomes = append(p.outcomes, o)
		}
		p.cycleS = append(p.cycleS, time.Since(cycle).Seconds())
		total += p.cycleS[len(p.cycleS)-1]
		if between != nil {
			between()
		}
	}
	p.cpu = cpuTime() - cpu0
	p.alloc = totalAlloc() - alloc0
	return p
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func bench(o options, stdout, stderr io.Writer) (*result, error) {
	w, d, err := setup(o)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, errOut: stderr}
	return r.bench(o, d.Seconds(), stdout)
}

// setupSamples collects set-up times: the run's own, then fresh
// processes taken one after each timed cycle, so that the samples
// spread over the run instead of one moment of a shared machine.
type setupSamples struct {
	o   options
	s   []float64
	err error
}

func (ss *setupSamples) take() {
	if ss.err != nil || len(ss.s) >= ss.o.setupRuns {
		return
	}
	v, err := setupSample(ss.o)
	ss.s, ss.err = append(ss.s, v), err
}

func (r *runner) bench(o options, setupS float64, stdout io.Writer) (*result, error) {
	// One untimed cycle fills lazy caches and fixes the golden digests
	// and model statistics; the reference cross-check runs once.
	warm := r.measure(0, nil, nil)
	r.attempted++
	if err := r.w.crossCheck(); err != nil {
		r.fail("golden cross-check: %v", err)
	}
	model, err := modelMetrics(warm.outcomes)
	if err != nil {
		return nil, err
	}

	env := environment(o)
	fmt.Fprintf(stdout, "env %s\n", env)
	res := &result{Metrics: map[string]metric{}}
	var samples int
	if !o.trace {
		ss := &setupSamples{o: o, s: []float64{setupS}}
		p := r.measure(o.seconds, nil, ss.take)
		for len(ss.s) < o.setupRuns && ss.err == nil {
			ss.take()
		}
		if ss.err != nil {
			return nil, ss.err
		}
		samples = len(p.opMS)
		for k, v := range endToEnd(p, median(ss.s)) {
			res.Metrics[k] = v
		}
		printTable(stdout, "info", wallMetrics(p), samples)
	} else {
		base := r.measure(o.seconds/2, nil, nil)
		t := newTracer()
		traced := r.measure(o.seconds/2, t, nil)
		samples = len(traced.opMS)
		for k, v := range perLayer(r.w, base, traced, t) {
			res.Metrics[k] = v
		}
		for k, v := range wallMetrics(base) {
			res.Metrics[k] = v
		}
		for k, v := range model {
			res.Metrics[k] = v
		}
		path := spansPath(o.spansDir, o.workload, o.seed)
		if err := t.writeSpans(path, env); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans %s (%d)\n", path, len(t.spans))
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	printTable(stdout, "metric", res.Metrics, samples)
	fmt.Fprintf(stdout, "op_fail_frac %v (%d of %d ops)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// printTable prints metrics one a line, sorted by name.
func printTable(w io.Writer, prefix string, metrics map[string]metric, samples int) {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, k := range names {
		m := metrics[k]
		fmt.Fprintf(bw, "%s %-36s %16.6g %s", prefix, k, m.Value, m.Unit)
		if strings.HasSuffix(k, "_p50") || strings.HasSuffix(k, "_p90") {
			fmt.Fprintf(bw, " (%d samples)", samples)
		}
		fmt.Fprintln(bw)
	}
	_ = bw.Flush() // diagnostics only; the JSON line is checked separately
}

// environment is the stamp every result carries.
func environment(o options) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	b, err := json.Marshal(map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpu,
		"go_version": runtime.Version(),
		"commit":     o.commit,
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
	})
	if err != nil {
		return "{}"
	}
	return string(b)
}
