package netsim

import (
	"fmt"
	"math"
)

// engine is the reusable high-throughput core behind every simulate
// entry point. All per-run state lives in flat, densely indexed slices
// that are grown once and reused across runs, so a warm engine performs
// no per-step (and almost no per-run) allocation:
//
//   - A numbering pass over the message routes assigns each distinct
//     directed link a contiguous id, so per-link state is slice lookups
//     instead of map operations. The pass is generation-stamped: reuse
//     needs no clearing.
//   - Per-link FIFO queues are intrusive singly-linked lists threaded
//     through a flat next-pointer array indexed by arena position.
//   - An active-link worklist holds exactly the links with at least one
//     immediately sendable flit (tracked by a per-link credit counter),
//     so each step touches only links that can move a flit — idle links
//     waiting on upstream traffic cost nothing.
//
// Arbitration is identical to the original simulator: per link, the
// first queued request with an available flit crosses; requests
// enqueued on the same step are ordered by message id (then hop).
//
// An engine is not safe for concurrent use. Every package-level entry
// point draws engines from a bounded free list: up to GOMAXPROCS
// engines, each with buffers sized to the largest run it has served,
// stay alive across GCs, so a warm entry point does not regrow them.
type engine struct {
	// Link-id numbering. The dense table path is used for the common
	// case of small non-negative external ids (hypercube EdgeIDs are
	// already dense); sparse or negative id spaces fall back to a map.
	stampGen uint32
	stamp    []uint32
	denseOf  []int32
	sparse   map[int]int32

	// Template numbering: position p of template i is off[i] + hop.
	route  []int32 // dense link id crossed at this position
	posMsg []int32 // owning template
	off    []int32

	// Per-link state.
	qhead  []int32
	qtail  []int32
	credit []int // immediately sendable flits across queued requests
	qlen   []int // requests currently enqueued
	inWork []bool

	// Worklist double buffer, per-step arrival batch, enqueue batch.
	work     []int32
	scratch  []int32
	arrivals []int32
	enq      []int32

	// Fault scratch: dense link id → external id for fault queries and
	// blame, the kill batch collected per down link, and the per-step
	// batch of permanently-down links whose kills are deferred to the
	// end of the transfer phase.
	ext  []int
	kill []int32
	down []int32

	// Slot arena. Messages are numbered as route *templates*; each
	// injected arrival occupies a slot whose position range is recycled
	// through a per-template free list, so state is proportional to the
	// in-flight window, not the injected total. These arrays grow by
	// append during a run (the generic grow() does not preserve
	// contents; only olBurst, which fills an empty arena, uses it) and
	// are truncated, not cleared, between runs.
	olSlotTmpl []int32   // slot → template index
	olSlotOff  []int32   // slot → first position in the arena arrays
	olSlotEnd  []int32   // slot → one past its last position
	olSlotMsg  []int32   // slot → trace message id (-1 when free)
	olSlotArr  []int     // slot → arrival step of the current occupant
	olSlotFl   []int32   // slot → flits (fixed per template)
	olSlotDead []bool    // slot → killed this step, freed at step end
	olFree     [][]int32 // template → free slot ids
	olKilled   []int32   // per-step batch of slots killed by faults
	olRoute    []int32   // position → dense link id (the template's route)
	olPosSlot  []int32   // position → owning slot
	olArrived  []int32   // position → flits available at the tail of its link
	olCrossed  []int32   // position → flits that have crossed its link
	olBuffer   []int32   // store-and-forward: flits pending full buffering
	olQueued   []bool    // position currently sits in its link's queue
	olQNext    []int32   // intrusive FIFO next pointer

	// Wormhole scratch (SimulateWormhole shares the numbering pass; the
	// channel-holding state below is its own).
	crossed        []int
	whHead, whTail []int32
	whDone         []bool
	whWaitNext     []int32
	whWaitingOn    []int32
	whHolder       []int32
	whWaitHead     []int32
	whWaitTail     []int32
	whWaitLen      []int
	whMoves        []int32

	res *Result

	// probe, when non-nil, receives observation events (see probe.go).
	// Every call site is guarded by a nil-check on this one field so a
	// probe-less run is bit-identical to the pre-probe engine.
	probe Probe
}

// newEngine returns an empty engine; buffers grow on first use.
func newEngine() *engine {
	return &engine{sparse: make(map[int]int32)}
}

// stepLimit bounds a legitimate run: once a message has fully crossed
// hop j-1, its request at hop j is queued with available flits, so
// FIFO arbitration moves some flit over that link every step, and a
// link carries at most totalFlits crossings in the whole run. Each hop
// therefore costs at most totalFlits steps, giving
// maxRoute·totalFlits overall; the remaining terms are slack for
// startup, single-hop pipelining, and empty inputs. Exceeding this is
// a simulator bug (livelock), never legitimate congestion.
func stepLimit(totalFlits, maxRoute, nMsgs int) int {
	return totalFlits*maxRoute + totalFlits + nMsgs + 16
}

// routeShape summarizes the single validation/numbering scan shared by
// every engine path: the distinct-link count of the numbering pass plus
// the totals the step-limit bound and state sizing need.
type routeShape struct {
	links      int32
	total      int // Σ len(route): route positions
	maxRoute   int // longest route
	totalFlits int // Σ flits
}

// numberAll validates the messages and runs the contiguous
// link-numbering pass in one scan, returning the run's shape. Every
// engine path (the step loop and simulateWormhole) starts here, so
// flit validation and numbering cannot drift between them. A warm engine performs no allocation in this
// pass (pinned by TestNumberAllNoAllocs).
func (e *engine) numberAll(msgs []*Message) (routeShape, error) {
	var sh routeShape
	minID, maxID := 0, -1
	seen := false
	for i, m := range msgs {
		if m.Flits < 1 || m.Flits > math.MaxInt32 {
			return sh, fmt.Errorf("netsim: message %d has %d flits", i, m.Flits)
		}
		sh.totalFlits += m.Flits
		if len(m.Route) > sh.maxRoute {
			sh.maxRoute = len(m.Route)
		}
		for _, id := range m.Route {
			if !seen || id < minID {
				minID = id
			}
			if !seen || id > maxID {
				maxID = id
			}
			seen = true
		}
		sh.total += len(m.Route)
	}
	sh.links = e.number(msgs, sh.total, minID, maxID)
	return sh, nil
}

// simulate runs the synchronous simulation on this engine's scratch
// buffers: the step loop of SimulateOpenLoop with every message
// arriving at step 0, under opts' mode and probe. Semantics and
// results are identical to SimulateReference; see the package
// documentation for the model.
func (e *engine) simulate(msgs []*Message, opts OpenLoopOpts) (*Result, error) {
	olr, err := e.openLoop(msgs, nil, opts, closedRun{burst: true})
	if err != nil {
		return nil, err
	}
	return &olr.Result, nil
}

// number runs the contiguous link-numbering pass, filling off, route,
// posMsg, and returns the number of distinct links.
func (e *engine) number(msgs []*Message, total, minID, maxID int) int32 {
	e.off = grow(e.off, len(msgs)+1)
	e.route = grow(e.route, total)
	e.posMsg = grow(e.posMsg, total)

	useTable := maxID < 0 || (minID >= 0 && maxID < 4*total+1024)
	if useTable {
		e.stamp = grow(e.stamp, maxID+1)
		e.denseOf = grow(e.denseOf, maxID+1)
		e.stampGen++
		if e.stampGen == 0 { // generation wrapped: invalidate explicitly
			for i := range e.stamp {
				e.stamp[i] = 0
			}
			e.stampGen = 1
		}
	} else {
		clear(e.sparse)
	}

	var links int32
	pos := int32(0)
	for i, m := range msgs {
		e.off[i] = pos
		for _, id := range m.Route {
			var d int32
			if useTable {
				if e.stamp[id] == e.stampGen {
					d = e.denseOf[id]
				} else {
					d = links
					links++
					e.stamp[id] = e.stampGen
					e.denseOf[id] = d
				}
			} else {
				v, ok := e.sparse[id]
				if ok {
					d = v
				} else {
					d = links
					links++
					e.sparse[id] = d
				}
			}
			e.route[pos] = d
			e.posMsg[pos] = int32(i)
			pos++
		}
	}
	e.off[len(msgs)] = pos
	return links
}

// growState sizes and resets the per-link and worklist scratch for a
// run over the given number of links.
func (e *engine) growState(links int) {
	e.qhead = grow(e.qhead, links)
	e.qtail = grow(e.qtail, links)
	e.credit = grow(e.credit, links)
	e.qlen = grow(e.qlen, links)
	e.inWork = grow(e.inWork, links)
	for l := 0; l < links; l++ {
		e.qhead[l] = -1
		e.qtail[l] = -1
		e.credit[l] = 0
		e.qlen[l] = 0
		e.inWork[l] = false
	}
	e.work = e.work[:0]
	e.scratch = e.scratch[:0]
}

// addCredit records c newly sendable flits on link l, scheduling the
// link into the next step's worklist on a zero→positive transition.
func (e *engine) addCredit(l int32, c int) {
	if e.credit[l] == 0 && c > 0 && !e.inWork[l] {
		e.inWork[l] = true
		e.work = append(e.work, l)
	}
	e.credit[l] += c
}

func grow[T int | int32 | uint32 | uint8 | bool](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
