package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkSpec reads the metric declarations of BENCHMARK.json.
func benchmarkSpec(t *testing.T) (workloads []string, endToEnd, perLayer []declared) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

// toyRun runs one workload at toy size for one cycle per phase and
// returns the result line.
func toyRun(t *testing.T, workload, seed, trace string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", seed, "--seconds", "0", "--trace", trace,
		"--size", "toy", "--setup-runs", "1", "--spans-dir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("%s exit %d: %s", workload, code, errOut.String())
	}
	var env map[string]any
	stamp, _, _ := strings.Cut(strings.TrimPrefix(out.String(), "env "), "\n")
	if err := json.Unmarshal([]byte(stamp), &env); err != nil {
		t.Fatalf("%s: no environment stamp: %v", workload, err)
	}
	for _, k := range []string{"gomaxprocs", "nproc", "cpu_model", "go_version", "commit"} {
		if _, ok := env[k]; !ok {
			t.Errorf("%s: environment stamp lacks %s", workload, k)
		}
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: %+v\n%s", workload, res, errOut.String())
	}
	return res
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want []declared) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", what, len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not printed", what, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: %s printed in %q, declared %q", what, d.Name, m.Unit, d.Unit)
		}
	}
}

// Every workload prints exactly the declared metrics in both modes,
// passes its own checks, and replays to the same digest from one seed.
func TestToyWorkloadsPrintDeclaredMetrics(t *testing.T) {
	workloads, endToEnd, perLayer := benchmarkSpec(t)
	if len(workloads) != len(setups) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(workloads), len(setups))
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			res := toyRun(t, w, "3", "0")
			sameMetrics(t, w+" untraced", res.Metrics, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
			traced := toyRun(t, w, "3", "1")
			sameMetrics(t, w+" traced", traced.Metrics, perLayer)
			again := toyRun(t, w, "3", "1")
			if got, want := again.Metrics["model.digest"], traced.Metrics["model.digest"]; got != want {
				t.Errorf("%s: digest %v on replay, %v first", w, got.Value, want.Value)
			}
			other := toyRun(t, w, "4", "1")
			if other.Metrics["model.digest"] == traced.Metrics["model.digest"] && w != "construct-verify" {
				t.Errorf("%s: seeds 3 and 4 gave the same digest", w)
			}
		})
	}
}

// A corrupted result — here a flit-conservation mismatch — counts as a
// failed op.
func TestCorruptedResultFails(t *testing.T) {
	for name, setupFn := range setups {
		w, err := setupFn(5, toySize)
		if err != nil {
			t.Fatal(err)
		}
		r := &runner{w: w, errOut: &bytes.Buffer{}}
		r.tamper = func(o *outcome) {
			if len(o.runs) > 0 {
				o.runs[0].moved++ // flit conservation no longer holds
			} else {
				o.claims[0].got++
			}
		}
		r.measure(0, nil, nil)
		if r.failed != len(w.ops) || r.attempted != len(w.ops) {
			t.Errorf("%s: %d of %d corrupted ops failed", name, r.failed, r.attempted)
		}
		res, err := r.bench(options{workload: name, trace: false}, 1, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted run reported correct: %+v", name, res)
		}
	}
}
