package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"multipath/internal/hypercube"
)

// TestSimulateShardedEquivalence: SimulateSharded runs Simulate for
// every nonnegative shard count, on heavy permutation contention, on
// shared links, and on empty routes.
func TestSimulateShardedEquivalence(t *testing.T) {
	q := hypercube.New(5)
	rng := rand.New(rand.NewSource(7))
	workloads := map[string][]*Message{
		"permutation-q5": permMessages(q, rng.Perm(q.Nodes()), 3),
		"shared-bottleneck": {
			{Route: []int{0, 9, 4}, Flits: 4},
			{Route: []int{1, 9, 5}, Flits: 4},
		},
		"empty-and-single": {
			{Route: nil, Flits: 1},
			{Route: []int{42}, Flits: 7},
		},
	}
	for name, msgs := range workloads {
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			want, err := Simulate(msgs, mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			for _, shards := range []int{0, 1, 2, 8} {
				got, err := SimulateSharded(msgs, mode, shards)
				if err != nil {
					t.Fatalf("%s/%v/shards=%d: %v", name, mode, shards, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%v/shards=%d: %+v != Simulate %+v", name, mode, shards, got, want)
				}
			}
		}
	}
}

// SimulateSharded rejects a negative shard count instead of silently
// running serially.
func TestNegativeShardCountRejected(t *testing.T) {
	msgs := []*Message{{Route: []int{0, 1}, Flits: 2}}
	_, err := SimulateSharded(msgs, CutThrough, -3)
	if err == nil || err.Error() != "netsim: negative shard count -3" {
		t.Errorf("err = %v, want a negative shard count error", err)
	}
}
