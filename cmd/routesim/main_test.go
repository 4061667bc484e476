package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestRunAllStrategies(t *testing.T) {
	if err := run(4, 16, 42, "all", false, "", 4, openLoopCfg{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleStrategy(t *testing.T) {
	for _, s := range []string{"ecube-sf", "ecube-ct", "ecube-wh", "valiant", "ccc"} {
		if err := run(4, 8, 1, s, false, "", 4, openLoopCfg{}); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

func TestRunObservedWithTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run(4, 8, 7, "all", true, trace, 4, openLoopCfg{}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Every line must be valid JSON with an "ev" field; all five
	// strategies run under the shared writer, so runs 1..5 appear.
	runs := map[int]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var ev struct {
			Ev  string `json:"ev"`
			Run int    `json:"run"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if ev.Ev == "" {
			t.Fatalf("line %d: missing ev field", lines)
		}
		runs[ev.Run] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("empty trace")
	}
	for r := 1; r <= 5; r++ {
		if !runs[r] {
			t.Errorf("no events for run %d (one per strategy expected)", r)
		}
	}
}

func TestRunZooStrategies(t *testing.T) {
	// The routing strategy zoo is reachable by explicit name, closed-
	// and open-loop; adaptive's open loop exercises the windowed
	// feedback path (with and without faults).
	for _, s := range []string{"dimorder", "minimal", "adaptive"} {
		if err := run(4, 8, 1, s, false, "", 4, openLoopCfg{}); err != nil {
			t.Errorf("%s closed-loop: %v", s, err)
		}
		ol := openLoopCfg{process: "poisson", rate: 0.2, arrivals: 200}
		if err := run(4, 8, 1, s, true, "", 4, ol); err != nil {
			t.Errorf("%s open-loop: %v", s, err)
		}
	}
	ol := openLoopCfg{process: "poisson", rate: 0.2, arrivals: 200, faultP: 0.05, faultSeed: 3}
	if err := run(4, 8, 1, "adaptive", false, "", 4, ol); err != nil {
		t.Errorf("adaptive faulty open-loop: %v", err)
	}
}

func TestRunRejectsUnknownStrategy(t *testing.T) {
	if err := run(4, 8, 1, "teleport", false, "", 4, openLoopCfg{}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestRunOpenLoopProcesses(t *testing.T) {
	for _, p := range []string{"poisson", "mmpp", "pareto", "lognormal"} {
		ol := openLoopCfg{process: p, rate: 0.2, arrivals: 200}
		if err := run(4, 8, 3, "ecube-ct", false, "", 4, ol); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestRunOpenLoopObserved(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "ol.jsonl")
	ol := openLoopCfg{process: "poisson", rate: 0.2, arrivals: 200}
	if err := run(4, 8, 3, "all", true, trace, 4, ol); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}
}

func TestRunOpenLoopRejectsBadProcess(t *testing.T) {
	ol := openLoopCfg{process: "uniform", rate: 0.2, arrivals: 10}
	if err := run(4, 8, 3, "ecube-ct", false, "", 4, ol); err == nil {
		t.Error("unknown arrival process accepted")
	}
	ol = openLoopCfg{process: "poisson", rate: -1, arrivals: 10}
	if err := run(4, 8, 3, "ecube-ct", false, "", 4, ol); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestRunRejectsBadN(t *testing.T) {
	if err := run(3, 8, 1, "all", false, "", 4, openLoopCfg{}); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

// TestRunRejectsBadFlags: every bad flag value is an error raised
// before anything is printed, including values only one path reads
// (-windows is read by the windowed adaptive run, -rate by no strategy
// in a wormhole-only open-loop run).
func TestRunRejectsBadFlags(t *testing.T) {
	poisson := openLoopCfg{process: "poisson", rate: 0.3, arrivals: 10}
	for name, c := range map[string]struct {
		flits, windows int
		strategy       string
		ol             openLoopCfg
	}{
		"windows -3":         {8, -3, "adaptive", poisson},
		"windows 0":          {8, 0, "all", openLoopCfg{}},
		"flits 0":            {0, 4, "all", openLoopCfg{}},
		"unknown strategy":   {8, 4, "teleport", openLoopCfg{}},
		"unknown process":    {8, 4, "ecube-wh", openLoopCfg{process: "uniform", rate: 0.3}},
		"rate 0":             {8, 4, "ecube-wh", openLoopCfg{process: "poisson"}},
		"negative arrivals":  {8, 4, "ecube-ct", openLoopCfg{process: "mmpp", rate: 0.3, arrivals: -1}},
		"fault-p without ol": {8, 4, "ecube-ct", openLoopCfg{faultP: 0.1}},
		"bad burst":          {8, 4, "ecube-ct", openLoopCfg{process: "poisson", rate: 0.3, faultP: 0.1, faultBurst: "x"}},
	} {
		var err error
		out := captureStdout(t, func() { err = run(4, c.flits, 1, c.strategy, false, "", c.windows, c.ol) })
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if out != "" {
			t.Errorf("%s: printed %q before rejecting", name, out)
		}
	}
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	f()
	w.Close()
	return string(<-done)
}

func TestRunOpenLoopFaulty(t *testing.T) {
	ol := openLoopCfg{process: "poisson", rate: 0.2, arrivals: 200, faultP: 0.05, faultSeed: 3}
	if err := run(4, 8, 7, "ecube-ct", false, "", 4, ol); err != nil {
		t.Fatalf("open-loop faulty run: %v", err)
	}
	ol.faultBurst = "16:48"
	if err := run(4, 8, 7, "ecube-ct", false, "", 4, ol); err != nil {
		t.Fatalf("open-loop burst run: %v", err)
	}
}

func TestRunRejectsBadFaultFlags(t *testing.T) {
	// Fault flags require the open-loop mode.
	if err := run(4, 8, 1, "ecube-ct", false, "", 4, openLoopCfg{faultP: 0.1}); err == nil {
		t.Fatal("closed-loop -fault-p accepted")
	}
	if err := run(4, 8, 1, "ecube-ct", false, "", 4, openLoopCfg{faultBurst: "16:48"}); err == nil {
		t.Fatal("closed-loop -fault-burst accepted")
	}
	ol := openLoopCfg{process: "poisson", rate: 0.2, arrivals: 10}
	bad := ol
	bad.faultP = 1.5
	if err := run(4, 8, 1, "ecube-ct", false, "", 4, bad); err == nil {
		t.Fatal("-fault-p out of range accepted")
	}
	bad = ol
	bad.faultBurst = "16:48"
	if err := run(4, 8, 1, "ecube-ct", false, "", 4, bad); err == nil {
		t.Fatal("-fault-burst without -fault-p accepted")
	}
	bad = ol
	bad.faultP, bad.faultBurst = 0.1, "48:16"
	if err := run(4, 8, 1, "ecube-ct", false, "", 4, bad); err == nil {
		t.Fatal("inverted burst window accepted")
	}
}
