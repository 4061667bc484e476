package netsim

import (
	"math/rand"
	"testing"

	"multipath/internal/hypercube"
)

// BenchmarkNetsimEngine is the old-vs-new engine comparison on large
// permutation traffic: Q_12 (4096 nodes, 24576 directed links) with
// 256-flit messages. The "reference" sub-benchmarks run the retained
// seed simulator (per-step full-map scan); "engine" runs the dense
// worklist core. Store-and-forward uses Q_10 to keep the reference's
// O(steps × links) runtime tolerable; the engine handles Q_12
// store-and-forward easily (see BENCH_netsim.json for recorded
// speedups).
func BenchmarkNetsimEngine(b *testing.B) {
	q12 := hypercube.New(12)
	rng := rand.New(rand.NewSource(7))
	ctMsgs := permMessages(q12, rng.Perm(q12.Nodes()), 256)
	q10 := hypercube.New(10)
	sfMsgs := permMessages(q10, rng.Perm(q10.Nodes()), 256)

	run := func(b *testing.B, sim func([]*Message, Mode) (*Result, error), msgs []*Message, mode Mode) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim(msgs, mode); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("reference/cut-through-n12-M256", func(b *testing.B) {
		run(b, SimulateReference, ctMsgs, CutThrough)
	})
	b.Run("engine/cut-through-n12-M256", func(b *testing.B) {
		run(b, Simulate, ctMsgs, CutThrough)
	})
	b.Run("reference/store-and-forward-n10-M256", func(b *testing.B) {
		run(b, SimulateReference, sfMsgs, StoreAndForward)
	})
	b.Run("engine/store-and-forward-n10-M256", func(b *testing.B) {
		run(b, Simulate, sfMsgs, StoreAndForward)
	})
}

// BenchmarkSimulateBatch measures the parallel batch runner against a
// serial loop over the same jobs: 32 independent Q_8 permutations.
func BenchmarkSimulateBatch(b *testing.B) {
	q := hypercube.New(8)
	rng := rand.New(rand.NewSource(5))
	jobs := make([]BatchJob, 32)
	for i := range jobs {
		jobs[i] = BatchJob{
			Msgs: permMessages(q, rng.Perm(q.Nodes()), 32),
			Mode: CutThrough,
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := Simulate(j.Msgs, j.Mode); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SimulateBatch(jobs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
