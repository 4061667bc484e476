// Package netsim is a synchronous link-level network simulator under
// the paper's cost model (§3): in one time unit every processor can
// send one packet (flit) over each outgoing link. It measures the
// §7 bit-serial routing claims: with M-flit messages, store-and-forward
// routing pays Θ(n·M) while pipelined routing over the multiple-copy
// CCC embedding completes in O(M + n).
//
// Two switching modes are provided:
//
//   - StoreAndForward: a message must be fully buffered at a node
//     before its first flit crosses the next link (message switching).
//   - CutThrough: flits stream as soon as they arrive (virtual
//     cut-through). This substitutes for the paper's wormhole model:
//     blocked messages buffer in nodes instead of holding channels, so
//     the simulator is deadlock-free on any route set while preserving
//     the O(M + distance) pipelining behaviour the paper exploits.
//     DESIGN.md records the substitution.
//
// Routes are sequences of directed link ids (any dense numbering).
// Each link carries one flit per step; contention resolves FIFO by
// arrival step, ties by message id (deterministic). The simulator has
// no route policy and knows no topology: internal/routing builds the
// single-path routes (e-cube, Valiant, ...) and internal/traffic the
// pattern, broadcast and embedding-derived message sets it runs.
//
// The simulation core is a dense, worklist-driven engine: a numbering
// pass gives links contiguous ids, per-link FIFOs live in flat reusable
// slices, and each step touches only links that can move a flit. There
// is one store-and-forward / cut-through step loop, the single-goroutine
// loop of SimulateOpenLoop, and the closed-loop entry points (Simulate,
// SimulateFaults, SimulateProbed) run it with every message arriving at
// step 0. Every entry point draws engines from a bounded free list that
// garbage collection does not empty: up to GOMAXPROCS engines, each
// with buffers sized to the largest run it has served, stay alive
// across GCs. Parallelism is across independent runs: SimulateBatch
// fans them out across GOMAXPROCS workers, one engine each. The
// original map-scanning simulator is retained as SimulateReference and
// the naive open-loop model as SimulateOpenLoopReference — the golden
// models for equivalence tests and old-vs-new benchmarks.
package netsim

import "fmt"

// Mode selects the switching discipline.
type Mode int

const (
	// StoreAndForward buffers whole messages at every hop.
	StoreAndForward Mode = iota
	// CutThrough pipelines flits hop by hop (virtual cut-through).
	CutThrough
)

func (m Mode) String() string {
	switch m {
	case StoreAndForward:
		return "store-and-forward"
	case CutThrough:
		return "cut-through"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Message is one routed transfer: Flits flits following Route (a
// sequence of directed link ids from source to destination).
type Message struct {
	Route []int
	Flits int
}

// Result reports a completed simulation.
type Result struct {
	Steps      int // steps until the last flit arrived
	FlitsMoved int // total link crossings
	// MaxLinkQueue is the largest number of messages simultaneously
	// enqueued on any one directed link at any point in the run: every
	// enqueue samples the queue length, so transient peaks between
	// steps are counted. A message waiting for upstream flits still
	// occupies its queue slot; a message leaves the queue only once its
	// last flit has crossed that link.
	MaxLinkQueue  int
	DeliveredMsgs int
	// FailedMsgs and DroppedFlits are populated only by the
	// fault-aware path (SimulateFaults); the fault-free simulators
	// always leave them zero. DroppedFlits counts the flit-hops of
	// failed messages that never happened, so the conservation
	// invariant generalizes to
	//
	//	FlitsMoved + DroppedFlits == Σ flits·len(route)
	//
	// for every run, faulty or not.
	FailedMsgs   int
	DroppedFlits int
}

// Simulate runs the synchronous simulation to completion. Messages
// with empty routes (source = destination) complete at step 0. The
// step limit guards against livelock bugs; it scales with the total
// work so legitimate runs never hit it (see stepLimit).
//
// Simulate is safe for concurrent use: each call borrows a pooled
// engine, so scratch buffers are reused across calls without locking.
func Simulate(msgs []*Message, mode Mode) (*Result, error) {
	e := engines.get()
	res, err := e.simulate(msgs, OpenLoopOpts{Mode: mode})
	engines.put(e)
	return res, err
}

func countEmptyRoutes(msgs []*Message) int {
	n := 0
	for _, m := range msgs {
		if len(m.Route) == 0 {
			n++
		}
	}
	return n
}

// MaxLinkLoad returns the maximum number of messages whose route uses
// any single directed link — the static congestion that lower-bounds
// completion time.
func MaxLinkLoad(msgs []*Message) int {
	load := make(map[int]int)
	max := 0
	for _, m := range msgs {
		for _, id := range m.Route {
			load[id]++
			if load[id] > max {
				max = load[id]
			}
		}
	}
	return max
}
