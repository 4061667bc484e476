package netsim

import "fmt"

// SimulateSharded runs Simulate. It is the closed-loop entry point of
// the retired partitioned engine, kept as a thin wrapper because
// callers outside this module still name it: a negative shard count is
// an error, and every other count runs the serial engine, whose results
// the partitioned one reproduced bit for bit.
func SimulateSharded(msgs []*Message, mode Mode, shards int) (*Result, error) {
	if shards < 0 {
		return nil, fmt.Errorf("netsim: negative shard count %d", shards)
	}
	return Simulate(msgs, mode)
}
