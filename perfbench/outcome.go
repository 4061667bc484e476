package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/selfheal"
)

// engineRec is one engine result an op received, kept raw so the
// conservation and accounting checks run centrally after the op.
type engineRec struct {
	direct                      bool // a netsim call the benchmark made itself
	closedLoop                  bool // hops is Σ flits·len(route), computed by the benchmark
	moved, dropped, hops        int
	injected, delivered, failed int
	steps, skipped, maxInFlight int
}

// claim is one output check: got must equal want.
type claim struct {
	what      string
	got, want int64
}

// outcome is everything one op reports: engine results, output
// claims, layer counts and the model statistics that feed the digest.
type outcome struct {
	runs   []engineRec
	claims []claim
	// model holds the exact simulated values the digest covers, in the
	// order the op produced them.
	model []int64
	lat   *obsv.Histogram

	// delivered/offered count logical messages (transfers for selfheal).
	delivered, offered int64

	routes, routeHops int64
	guestEdges        int64
	deadLinks         int64
	transfers         int64
	retries           int64
	reroutes          int64
	abandoned         int64
}

func (o *outcome) check(what string, got, want int) {
	o.claims = append(o.claims, claim{what, int64(got), int64(want)})
}

func (o *outcome) require(what string, ok bool) {
	if ok {
		o.check(what, 1, 1)
	} else {
		o.check(what, 0, 1)
	}
}

func (o *outcome) record(vals ...int) {
	for _, v := range vals {
		o.model = append(o.model, int64(v))
	}
}

// openLoop records an open-loop engine result.
func (o *outcome) openLoop(r *netsim.OpenLoopResult, direct bool) {
	o.runs = append(o.runs, engineRec{
		direct: direct,
		moved:  r.FlitsMoved, dropped: r.DroppedFlits, hops: r.InjectedHops,
		injected: r.Injected, delivered: r.DeliveredMsgs, failed: r.FailedMsgs,
		steps: r.Steps, skipped: r.SkippedSteps, maxInFlight: r.MaxInFlight,
	})
	o.record(r.Steps, r.FlitsMoved, r.MaxLinkQueue, r.DeliveredMsgs, r.FailedMsgs,
		r.DroppedFlits, r.Injected, r.InjectedHops, r.SkippedSteps, r.MaxInFlight)
}

// closedLoop records a closed-loop drain of msgs.
func (o *outcome) closedLoop(r *netsim.Result, msgs []*netsim.Message) {
	want := 0
	for _, m := range msgs {
		want += m.Flits * len(m.Route)
	}
	o.runs = append(o.runs, engineRec{
		direct: true, closedLoop: true,
		moved: r.FlitsMoved, dropped: r.DroppedFlits, hops: want,
		injected: len(msgs), delivered: r.DeliveredMsgs, failed: r.FailedMsgs,
		steps: r.Steps,
	})
	o.record(r.Steps, r.FlitsMoved, r.MaxLinkQueue, r.DeliveredMsgs)
}

// heal records a self-healing session report over arrivals transfers
// whose drained-run piece count is basePieces.
func (o *outcome) heal(rep *selfheal.Report, arrivals, basePieces int) {
	o.openLoop(&rep.Engine, false)
	o.transfers += int64(rep.Transfers)
	o.retries += int64(rep.Retries)
	o.reroutes += int64(rep.Reroutes)
	o.abandoned += int64(rep.Abandoned)
	o.delivered += int64(rep.Delivered)
	o.offered += int64(rep.Transfers)
	o.record(rep.Transfers, rep.Delivered, rep.DeadlineMisses, rep.Retries,
		rep.Reroutes, rep.Abandoned, rep.DeadLinks)
	if rep.Engine.TimedOut {
		o.check("selfheal: run drained before the step limit", 0, 1)
		return
	}
	o.check("selfheal: transfers == arrivals", rep.Transfers, arrivals)
	o.check("selfheal: delivered + abandoned == transfers", rep.Delivered+rep.Abandoned, rep.Transfers)
	o.check("selfheal: injected pieces == base pieces + retries", rep.Engine.Injected, basePieces+rep.Retries)
}

// verify runs every output check; it returns "" when all pass.
func (o *outcome) verify() string {
	for _, r := range o.runs {
		if r.moved+r.dropped != r.hops {
			return fmt.Sprintf("conservation: moved %d + dropped %d != injected hops %d", r.moved, r.dropped, r.hops)
		}
		if r.delivered+r.failed != r.injected {
			return fmt.Sprintf("accounting: delivered %d + failed %d != injected %d", r.delivered, r.failed, r.injected)
		}
		if r.closedLoop && r.moved != r.hops {
			return fmt.Sprintf("closed-loop drain moved %d flit-hops, want Σ flits·len(route) = %d", r.moved, r.hops)
		}
	}
	for _, c := range o.claims {
		if c.got != c.want {
			return fmt.Sprintf("%s: got %d, want %d", c.what, c.got, c.want)
		}
	}
	return ""
}

// digest hashes the op's model outputs: the engine counters, claims
// and latency histogram, all exact simulated values.
func (o *outcome) digest() uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, v := range o.model {
		put(v)
	}
	for _, c := range o.claims {
		put(c.got)
	}
	if o.lat != nil {
		put(int64(o.lat.N))
		put(o.lat.Sum)
		put(int64(o.lat.Max))
		for _, c := range o.lat.Counts {
			put(int64(c))
		}
	}
	return h.Sum64()
}
