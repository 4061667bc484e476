package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"time"

	"multipath/internal/hypercube"
	"multipath/internal/netsim"
)

// BENCH_netsim.json: the machine-readable perf record emitted next to
// the markdown tables. Future PRs diff these files to track the perf
// trajectory of the simulator and the experiment suites.

// benchEnv records the execution environment in every BENCH_*.json
// report. Wall-clock cells cannot be read without it: the experiment
// suites and E27's load points run across GOMAXPROCS workers, so the
// same run takes longer on a host with fewer CPUs, and the env block is
// what distinguishes that from a regression.
type benchEnv struct {
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

func currentEnv() benchEnv {
	return benchEnv{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

type speedupReport struct {
	Workload    string  `json:"workload"`
	ReferenceMS float64 `json:"reference_ms"`
	EngineMS    float64 `json:"engine_ms"`
	Speedup     float64 `json:"speedup"`
}

type benchExperiment struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	WallMS float64    `json:"wall_ms"`
	Error  string     `json:"error,omitempty"`
	Header []string   `json:"headers,omitempty"`
	Rows   [][]string `json:"rows,omitempty"`
	Notes  []string   `json:"notes,omitempty"`
}

type benchReport struct {
	GeneratedAt   string            `json:"generated_at"`
	GoMaxProcs    int               `json:"gomaxprocs"`
	Env           benchEnv          `json:"env"`
	Parallel      bool              `json:"parallel"`
	TotalWallMS   float64           `json:"total_wall_ms"`
	EngineSpeedup *speedupReport    `json:"engine_speedup"`
	Experiments   []benchExperiment `json:"experiments"`
}

// measureEngineSpeedup times the E17-class switching sweep — Q_8
// random-permutation traffic, M ∈ {8,32,128}, store-and-forward and
// cut-through — on the retained seed simulator versus the dense
// engine, taking the best of three repetitions of each. Message sets
// are built once outside the timed region.
func measureEngineSpeedup() *speedupReport {
	q := hypercube.New(8)
	rng := rand.New(rand.NewSource(11))
	perm := rng.Perm(q.Nodes())
	var sets [][]*netsim.Message
	for _, M := range []int{8, 32, 128} {
		msgs, err := ecubeMessages(q, perm, M)
		if err != nil {
			panic(err) // valid permutation and flits; cannot fail
		}
		sets = append(sets, msgs)
	}
	sweep := func(sim func([]*netsim.Message, netsim.Mode) (*netsim.Result, error)) time.Duration {
		var best time.Duration
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			for _, msgs := range sets {
				for _, mode := range []netsim.Mode{netsim.StoreAndForward, netsim.CutThrough} {
					if _, err := sim(msgs, mode); err != nil {
						panic(err) // deterministic workload; cannot fail
					}
				}
			}
			if d := time.Since(start); rep == 0 || d < best {
				best = d
			}
		}
		return best
	}
	ref := sweep(netsim.SimulateReference)
	eng := sweep(netsim.Simulate)
	return &speedupReport{
		Workload:    "E17 switching sweep: Q_8 permutation, M in {8,32,128}, store-and-forward + cut-through",
		ReferenceMS: float64(ref) / float64(time.Millisecond),
		EngineMS:    float64(eng) / float64(time.Millisecond),
		Speedup:     float64(ref) / float64(eng),
	}
}

func writeBenchJSON(path string, outs []outcome, sp *speedupReport, parallel bool) error {
	rep := benchReport{
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Env:           currentEnv(),
		Parallel:      parallel,
		EngineSpeedup: sp,
	}
	for _, o := range outs {
		be := benchExperiment{
			ID:     o.exp.id,
			Title:  o.exp.title,
			WallMS: float64(o.wall) / float64(time.Millisecond),
		}
		rep.TotalWallMS += be.WallMS
		if o.err != nil {
			be.Error = o.err.Error()
		} else {
			be.Header = o.tab.headers
			be.Rows = o.tab.rows
			be.Notes = o.tab.notes
		}
		rep.Experiments = append(rep.Experiments, be)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
