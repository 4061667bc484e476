package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"multipath"
	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/hamdecomp"
	"multipath/internal/xproduct"
)

// BENCH_construct.json: the perf record for the dense metric and
// construction engines in internal/core, emitted alongside
// BENCH_netsim.json. For each paper construction at growing host sizes
// it captures build wall-clock, build allocation count, and verify
// wall-clock; at n = 16 it pins the warm-verification speedup of the
// dense parallel passes over the retained map-based reference
// implementations (WidthReference / SynchronizedCostReference) and the
// arena-backed builders against their retained slice-of-slices golden
// models (build_speedups_n16). A second build sweep with GOMAXPROCS
// raised (builds_mp) records what the per-worker arena fan-out adds.

type constructCase struct {
	Name        string  `json:"name"`
	HostDims    int     `json:"host_dims"`
	GuestEdges  int     `json:"guest_edges"`
	Width       int     `json:"width"`
	SyncCost    int     `json:"sync_cost"`
	BuildMS     float64 `json:"build_ms"`
	BuildAllocs uint64  `json:"build_allocs"`   // heap allocations performed by the build
	ColdMS      float64 `json:"cold_verify_ms"` // first Validate+Width+SynchronizedCost (cache adopted at build, so no rebuild)
	WarmMS      float64 `json:"warm_verify_ms"` // same sweep with the cache hot, best of 3
	PacketCosts []int   `json:"ppacket_costs"`  // PPacketCosts sweep over ppacketSweep
}

type metricSpeedup struct {
	Case        string  `json:"case"`
	Metric      string  `json:"metric"`
	ReferenceMS float64 `json:"reference_ms"`
	DenseMS     float64 `json:"dense_ms"`
	Speedup     float64 `json:"speedup"`
}

// buildSpeedup compares an arena-backed constructor against its
// retained slice-of-slices golden model at n = 16, as build wall-clock,
// build allocation count, and build-to-first-verified wall-clock (the
// arena adopts the dense route cache at build time, the retained
// builder pays the cache rebuild inside its first verification). The
// build-to-verified times are medians of interleaved repeats.
type buildSpeedup struct {
	Case                 string  `json:"case"`
	RetainedBuildMS      float64 `json:"retained_build_ms"`
	ArenaBuildMS         float64 `json:"arena_build_ms"`
	RetainedBuildAllocs  uint64  `json:"retained_build_allocs"`
	ArenaBuildAllocs     uint64  `json:"arena_build_allocs"`
	AllocImprovement     float64 `json:"alloc_improvement"`
	RetainedToVerifiedMS float64 `json:"retained_to_verified_ms"`
	ArenaToVerifiedMS    float64 `json:"arena_to_verified_ms"`
	ToVerifiedSpeedup    float64 `json:"to_verified_speedup"`
}

// mpBuild is one case's build wall-clock with GOMAXPROCS raised, so
// the record shows what the per-worker arena fan-out contributes on
// top of the single-core allocation win (nothing on a 1-core host).
type mpBuild struct {
	Name    string  `json:"name"`
	BuildMS float64 `json:"build_ms"`
}

type constructReport struct {
	GeneratedAt   string          `json:"generated_at"`
	GoMaxProcs    int             `json:"gomaxprocs"`
	Env           benchEnv        `json:"env"`
	Cases         []constructCase `json:"cases"`
	Speedups      []metricSpeedup `json:"warm_speedups_n16"`
	BuildSpeedups []buildSpeedup  `json:"build_speedups_n16"`
	MPGoMaxProcs  int             `json:"mp_gomaxprocs"`
	MPBuilds      []mpBuild       `json:"builds_mp"`
}

// ppacketSweep is the packet-count sweep measured per construction via
// one SimulateBatch call (core.PPacketCosts).
var ppacketSweep = []int{1, 2, 4, 8}

// constructEmbeddings builds the benchmark constructions in order.
// Theorem 4 runs at base a ∈ {4, 8} (hosts Q_8 and Q_16); a = 6 is
// skipped because padding its 6 directed cycles to 8 moment labels
// repeats automorphs and breaks the collision-free schedule.
func constructEmbeddings() ([]string, []func() (*core.Embedding, error)) {
	names := []string{
		"theorem1/n=8", "theorem1/n=12", "theorem1/n=16",
		"theorem2/n=8", "theorem2/n=12", "theorem2/n=16",
		"theorem4/n=8", "theorem4/n=16",
	}
	builders := []func() (*core.Embedding, error){
		func() (*core.Embedding, error) { return cycles.Theorem1(8) },
		func() (*core.Embedding, error) { return cycles.Theorem1(12) },
		func() (*core.Embedding, error) { return cycles.Theorem1(16) },
		func() (*core.Embedding, error) { return cycles.Theorem2(8) },
		func() (*core.Embedding, error) { return cycles.Theorem2(12) },
		func() (*core.Embedding, error) { return cycles.Theorem2(16) },
		func() (*core.Embedding, error) { return theorem4Embedding(4) },
		func() (*core.Embedding, error) { return theorem4Embedding(8) },
	}
	return names, builders
}

func theorem4Embedding(a int) (*core.Embedding, error) {
	copies, err := theorem4Copies(a)
	if err != nil {
		return nil, err
	}
	_, xe, err := xproduct.Theorem4(copies)
	return xe, err
}

func theorem4Copies(a int) ([]*core.Embedding, error) {
	dec, err := hamdecomp.Decompose(a)
	if err != nil {
		return nil, err
	}
	q := multipath.NewHypercube(a)
	var copies []*core.Embedding
	for _, cyc := range dec.Directed() {
		e, err := multipath.DirectCycleEmbedding(q, cyc)
		if err != nil {
			return nil, err
		}
		copies = append(copies, e)
	}
	return copies, nil
}

// retainedBuilders maps each n = 16 benchmark case to its retained
// slice-of-slices golden-model builder.
func retainedBuilders() map[string]func() (*core.Embedding, error) {
	return map[string]func() (*core.Embedding, error){
		"theorem1/n=16": func() (*core.Embedding, error) { return cycles.Theorem1Reference(16) },
		"theorem2/n=16": func() (*core.Embedding, error) { return cycles.Theorem2Reference(16) },
		"theorem4/n=16": func() (*core.Embedding, error) {
			copies, err := theorem4Copies(8)
			if err != nil {
				return nil, err
			}
			_, xe, err := xproduct.Theorem4Reference(copies)
			return xe, err
		},
	}
}

// buildAllocs runs build and returns the embedding, the wall-clock,
// and the heap allocation count the build performed.
func buildAllocs(build func() (*core.Embedding, error)) (*core.Embedding, time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	e, err := build()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return e, wall, after.Mallocs - before.Mallocs, err
}

func verifySweep(e *core.Embedding) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if _, err := e.Width(); err != nil {
		return err
	}
	if _, err := e.SynchronizedCost(); err != nil {
		return err
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// bestOf3 returns the best wall-clock of three runs of fn.
func bestOf3(fn func() error) (time.Duration, error) {
	var best time.Duration
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); rep == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func runConstructBench() (*constructReport, error) {
	rep := &constructReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Env:         currentEnv(),
	}
	names, builders := constructEmbeddings()
	for i, name := range names {
		e, build, allocs, err := buildAllocs(builders[i])
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", name, err)
		}

		start := time.Now()
		if err := verifySweep(e); err != nil {
			return nil, fmt.Errorf("%s: verify: %w", name, err)
		}
		cold := time.Since(start)

		warm, err := bestOf3(func() error { return verifySweep(e) })
		if err != nil {
			return nil, fmt.Errorf("%s: warm verify: %w", name, err)
		}
		w, err := e.Width()
		if err != nil {
			return nil, err
		}
		c, err := e.SynchronizedCost()
		if err != nil {
			return nil, err
		}
		costs, err := e.PPacketCosts(ppacketSweep)
		if err != nil {
			return nil, fmt.Errorf("%s: ppacket sweep: %w", name, err)
		}
		rep.Cases = append(rep.Cases, constructCase{
			Name:        name,
			HostDims:    e.Host.Dims(),
			GuestEdges:  e.Guest.M(),
			Width:       w,
			SyncCost:    c,
			BuildMS:     ms(build),
			BuildAllocs: allocs,
			ColdMS:      ms(cold),
			WarmMS:      ms(warm),
			PacketCosts: costs,
		})

		// At n = 16, pin warm dense-vs-reference speedups per metric.
		if e.Host.Dims() != 16 {
			continue
		}
		type metric struct {
			name      string
			dense     func() error
			reference func() error
		}
		metrics := []metric{
			{"width",
				func() error { _, err := e.Width(); return err },
				func() error { _, err := e.WidthReference(); return err }},
			{"synchronized_cost",
				func() error { _, err := e.SynchronizedCost(); return err },
				func() error { _, err := e.SynchronizedCostReference(); return err }},
		}
		for _, m := range metrics {
			dense, err := bestOf3(m.dense)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %w", name, m.name, err)
			}
			ref, err := bestOf3(m.reference)
			if err != nil {
				return nil, fmt.Errorf("%s: %s reference: %w", name, m.name, err)
			}
			rep.Speedups = append(rep.Speedups, metricSpeedup{
				Case:        name,
				Metric:      m.name,
				ReferenceMS: ms(ref),
				DenseMS:     ms(dense),
				Speedup:     float64(ref) / float64(dense),
			})
		}
	}

	// Arena vs retained golden-model builders at n = 16. toVerified is
	// build plus the first verification sweep: the retained path rebuilds
	// the route cache there, the arena path adopted it at build time.
	arenaByName := map[string]func() (*core.Embedding, error){}
	for i, name := range names {
		arenaByName[name] = builders[i]
	}
	toVerified := func(build func() (*core.Embedding, error)) (time.Duration, uint64, error) {
		e, wall, allocs, err := buildAllocs(build)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if err := verifySweep(e); err != nil {
			return 0, 0, err
		}
		return wall + time.Since(start), allocs, nil
	}
	for _, name := range []string{"theorem1/n=16", "theorem2/n=16", "theorem4/n=16"} {
		arena, retained := arenaByName[name], retainedBuilders()[name]
		_, aBuild, aAllocs, err := buildAllocs(arena)
		if err != nil {
			return nil, fmt.Errorf("%s: arena build: %w", name, err)
		}
		_, rBuild, rAllocs, err := buildAllocs(retained)
		if err != nil {
			return nil, fmt.Errorf("%s: retained build: %w", name, err)
		}
		// Build-to-verified times are medians over interleaved repeats
		// whose leader alternates, so a load spike on the host lands on
		// both sides of a repeat and cannot decide the speed-up alone.
		const repeats = 5
		var aTimes, rTimes [repeats]time.Duration
		for i := range repeats {
			first, second := arena, retained
			if i%2 == 1 {
				first, second = retained, arena
			}
			d1, _, err := toVerified(first)
			if err != nil {
				return nil, fmt.Errorf("%s: verify: %w", name, err)
			}
			d2, _, err := toVerified(second)
			if err != nil {
				return nil, fmt.Errorf("%s: verify: %w", name, err)
			}
			if i%2 == 1 {
				d1, d2 = d2, d1
			}
			aTimes[i], rTimes[i] = d1, d2
		}
		slices.Sort(aTimes[:])
		slices.Sort(rTimes[:])
		aVerified, rVerified := aTimes[repeats/2], rTimes[repeats/2]
		rep.BuildSpeedups = append(rep.BuildSpeedups, buildSpeedup{
			Case:                 name,
			RetainedBuildMS:      ms(rBuild),
			ArenaBuildMS:         ms(aBuild),
			RetainedBuildAllocs:  rAllocs,
			ArenaBuildAllocs:     aAllocs,
			AllocImprovement:     float64(rAllocs) / float64(aAllocs),
			RetainedToVerifiedMS: ms(rVerified),
			ArenaToVerifiedMS:    ms(aVerified),
			ToVerifiedSpeedup:    float64(rVerified) / float64(aVerified),
		})
	}

	// Re-run the arena builds with GOMAXPROCS raised so the record holds
	// a multi-worker datapoint next to the single-core one (BuildParallel
	// fans per-worker arenas out across GOMAXPROCS).
	mp := runtime.NumCPU()
	if mp < 2 {
		mp = 2
	}
	prev := runtime.GOMAXPROCS(mp)
	rep.MPGoMaxProcs = mp
	for i, name := range names {
		_, wall, _, err := buildAllocs(builders[i])
		if err != nil {
			runtime.GOMAXPROCS(prev)
			return nil, fmt.Errorf("%s: gomaxprocs=%d build: %w", name, mp, err)
		}
		rep.MPBuilds = append(rep.MPBuilds, mpBuild{Name: name, BuildMS: ms(wall)})
	}
	runtime.GOMAXPROCS(prev)
	return rep, nil
}

func writeConstructJSON(path string) error {
	rep, err := runConstructBench()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	min := 0.0
	for _, s := range rep.Speedups {
		if min == 0 || s.Speedup < min {
			min = s.Speedup
		}
	}
	minAlloc := 0.0
	for _, s := range rep.BuildSpeedups {
		if minAlloc == 0 || s.AllocImprovement < minAlloc {
			minAlloc = s.AllocImprovement
		}
	}
	fmt.Printf("wrote %s (dense metric engine ≥%.1fx over map reference at n=16 warm; arena builders ≥%.0fx fewer allocations than retained)\n",
		path, min, minAlloc)
	return nil
}
