package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"multipath/internal/hypercube"
)

// mallocsOnce counts the heap allocations of exactly one call of f.
// Unlike testing.AllocsPerRun it runs no warm-up call first, so it sees
// whatever state f finds — here, the free list after a GC.
func mallocsOnce(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestEngineSurvivesGC pins the free list's contract: a warm engine
// and its buffers outlive garbage collection, so the first run after
// two GCs allocates exactly what a warm run does (a sync.Pool would
// have been emptied, and the run would rebuild the engine). It then
// drives the batch and open-loop entry points from more goroutines than
// the list holds: every result must match the serial one, and the list
// must stay within GOMAXPROCS entries.
func TestEngineSurvivesGC(t *testing.T) {
	q := hypercube.New(6)
	rng := rand.New(rand.NewSource(5))
	msgs := permMessages(q, rng.Perm(q.Nodes()), 3)
	run := func() {
		if _, err := Simulate(msgs, CutThrough); err != nil {
			panic(err)
		}
	}
	// testing.AllocsPerRun measures at GOMAXPROCS 1, where the list
	// keeps one engine. Each run at that setting drops one extra idle
	// engine (the list held at most the old GOMAXPROCS), and the last
	// run warms the engine kept.
	restore := runtime.GOMAXPROCS(1)
	for i := 0; i <= restore; i++ {
		run()
	}
	warm := testing.AllocsPerRun(5, run)
	runtime.GC()
	runtime.GC()
	afterGC := mallocsOnce(run)
	runtime.GOMAXPROCS(restore)
	if float64(afterGC) != warm {
		t.Errorf("first run after two GCs allocated %d times, a warm run %v", afterGC, warm)
	}

	tmpls := permTemplates(t, 5, 2, 9)
	tr := &Trace{}
	for i := 0; i < 300; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i / 3, Tmpl: int32(i % len(tmpls))})
	}
	opts := OpenLoopOpts{Mode: StoreAndForward}
	wantOL, err := SimulateOpenLoop(tmpls, tr.Source(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []BatchJob
	for i := 0; i < 6; i++ {
		jobs = append(jobs, BatchJob{
			Msgs: permMessages(q, rng.Perm(q.Nodes()), 1+i%3),
			Mode: Mode(i % 2),
		})
	}
	wantBatch := make([]*Result, len(jobs))
	for i, job := range jobs {
		if wantBatch[i], err = Simulate(job.Msgs, job.Mode); err != nil {
			t.Fatal(err)
		}
	}

	callers := 2*runtime.GOMAXPROCS(0) + 2
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := SimulateBatch(jobs)
				if err == nil && !reflect.DeepEqual(got, wantBatch) {
					err = fmt.Errorf("caller %d: batch results differ from serial", c)
				}
				if err == nil {
					var ol *OpenLoopResult
					ol, err = SimulateOpenLoop(tmpls, tr.Source(), opts)
					if err == nil && !reflect.DeepEqual(ol, wantOL) {
						err = fmt.Errorf("caller %d: concurrent open-loop result differs from serial", c)
					}
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n, limit := freeLen(&engines), runtime.GOMAXPROCS(0); n > limit {
		t.Errorf("engines holds %d idle entries, limit GOMAXPROCS = %d", n, limit)
	}
}

func freeLen[T any](l *freeList[T]) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}
