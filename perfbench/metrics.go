package main

import (
	"fmt"
	"time"

	"multipath/internal/obsv"
)

// The metric names and units below are the ones BENCHMARK.json
// declares; the smoke test holds the two lists equal.

// endToEnd computes the untraced metrics of one measured phase. Op
// times are process CPU time (user+sys over all threads), each op's
// median across cycles: on a shared machine, wall time also measures
// the neighbours (CPU steal), and its run-to-run spread is several
// times CPU time's. wallMetrics reports the wall-clock figures.
func endToEnd(p *phase, setupS float64) map[string]metric {
	ops := float64(len(p.opMS))
	perOp := p.opMedians(p.opCPU)
	return map[string]metric{
		"setup_s":             {setupS, "s"},
		"op_cpu_ms_p50":       {quantile(perOp, 0.5), "ms"},
		"op_cpu_ms_p90":       {quantile(perOp, 0.9), "ms"},
		"cpu_ms_per_op":       {float64(p.cpu) / float64(time.Millisecond) / ops, "ms"},
		"flit_hops_per_cpu_s": {float64(tallyOf(p).hops) / p.cpu.Seconds(), "1/s"},
		"alloc_mb_per_op":     {float64(p.alloc) / 1e6 / ops, "MB"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
	}
}

// wallMetrics are the wall-clock end-to-end figures: each op's median
// wall time across cycles, and rates over one cycle's work divided by
// the sum of those medians. They are reported with the per-layer
// metrics, ungated, because shared-host noise dominates them.
func wallMetrics(p *phase) map[string]metric {
	perOp := p.opMedians(p.opMS)
	var cycleS float64
	for _, ms := range perOp {
		cycleS += ms / 1e3
	}
	return map[string]metric{
		"wall.op_ms_p50":       {quantile(perOp, 0.5), "ms"},
		"wall.op_ms_p90":       {quantile(perOp, 0.9), "ms"},
		"wall.ops_per_s":       {float64(len(perOp)) / cycleS, "1/s"},
		"wall.flit_hops_per_s": {float64(tallyOf(p).hops) / float64(len(p.cycleS)) / cycleS, "1/s"},
	}
}

// tally sums the layer counts of a phase's outcomes.
type tally struct {
	ops                                   float64
	calls, steps, skipped, hops, direct   int64
	failedMsgs, dropped, maxInFlight      int64
	routes, routeHops, guestEdges, dead   int64
	transfers, retries, reroutes, abandon int64
	shDelivered                           int64
}

func tallyOf(p *phase) tally {
	t := tally{ops: float64(len(p.outcomes))}
	for _, o := range p.outcomes {
		for _, r := range o.runs {
			if r.direct {
				t.calls++
				t.direct += int64(r.moved)
			}
			t.steps += int64(r.steps)
			t.skipped += int64(r.skipped)
			t.hops += int64(r.moved)
			t.failedMsgs += int64(r.failed)
			t.dropped += int64(r.dropped)
			t.maxInFlight = max(t.maxInFlight, int64(r.maxInFlight))
		}
		t.routes += o.routes
		t.routeHops += o.routeHops
		t.guestEdges += o.guestEdges
		t.dead += o.deadLinks
		t.transfers += o.transfers
		t.retries += o.retries
		t.reroutes += o.reroutes
		t.abandon += o.abandoned
		if o.transfers > 0 {
			t.shDelivered += o.delivered
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the traced metrics: per-op self time of every
// layer the benchmark calls, the wrappers' counts, and the tracing
// overhead (median op CPU time) against the untraced base phase of the
// same run.
func perLayer(w *workload, base, traced *phase, t *tracer) map[string]metric {
	self := t.selfTimes()
	c := tallyOf(traced)
	perOp := func(n int64) metric { return metric{float64(n) / c.ops, "count/op"} }
	msPerOp := func(span string) metric {
		return metric{float64(self[span]) / float64(time.Millisecond) / c.ops, "ms/op"}
	}
	var opNS float64
	for _, s := range t.spans {
		if s.Parent < 0 {
			opNS += float64(s.End - s.Start)
		}
	}
	netNS := float64(self["netsim.openloop"] + self["netsim.closedloop"])
	return map[string]metric{
		"cycles.build_ms":      msPerOp("cycles.build"),
		"core.verify_ms":       msPerOp("core.verify"),
		"core.ppacket_ms":      msPerOp("core.ppacket"),
		"core.guest_edges":     perOp(c.guestEdges),
		"hamdecomp.cold_ms":    {float64(w.hamdecompCold) / float64(time.Millisecond), "ms"},
		"traffic.arrivals_ms":  msPerOp("traffic.arrivals"),
		"traffic.templates_ms": msPerOp("traffic.templates"),
		"routing.templates_ms": msPerOp("routing.templates"),
		"routing.routes":       perOp(c.routes),
		"routing.route_hops":   perOp(c.routeHops),
		"routing.run_ms":       msPerOp("routing.run"),

		"netsim.openloop_ms":     msPerOp("netsim.openloop"),
		"netsim.closedloop_ms":   msPerOp("netsim.closedloop"),
		"netsim.calls":           perOp(c.calls),
		"netsim.steps":           perOp(c.steps),
		"netsim.skipped_steps":   perOp(c.skipped),
		"netsim.flit_hops":       perOp(c.hops),
		"netsim.ns_per_flit_hop": {ratio(netNS, float64(c.direct)), "ns"},
		"netsim.max_in_flight":   {float64(c.maxInFlight), "count"},
		"netsim.failed_msgs":     perOp(c.failedMsgs),
		"netsim.dropped_flits":   perOp(c.dropped),

		"obsv.step_end_ms":    {float64(t.stepEndNS) / 1e6 / c.ops, "ms/op"},
		"obsv.step_end_calls": perOp(t.stepEndCalls),
		"obsv.queue_samples":  perOp(t.queueSamples),
		"obsv.flit_events":    perOp(t.flitEvents),
		"obsv.share":          {ratio(float64(t.stepEndNS), opNS), "frac"},

		"faults.status_calls":              perOp(t.statusCalls.Load()),
		"faults.status_calls_per_flit_hop": {ratio(float64(t.statusCalls.Load()), float64(c.hops)), "frac"},
		"faults.dead_links":                perOp(c.dead),

		"selfheal.send_ms":     msPerOp("selfheal.send"),
		"selfheal.retries":     perOp(c.retries),
		"selfheal.reroutes":    perOp(c.reroutes),
		"selfheal.abandoned":   perOp(c.abandon),
		"selfheal.useful_frac": {ratio(float64(c.shDelivered), float64(c.transfers+c.retries)), "frac"},

		"trace.overhead_frac": {quantile(traced.opMedians(traced.opCPU), 0.5)/quantile(base.opMedians(base.opCPU), 0.5) - 1, "frac"},
	}
}

// modelMetrics summarizes the exact simulated statistics of one cycle
// and folds its op digests into the workload digest (53 bits, so the
// JSON number is exact).
func modelMetrics(cycle []*outcome) (map[string]metric, error) {
	lat := obsv.NewHistogram(1, 1<<14)
	var delivered, offered int64
	var dg uint64 = 14695981039346656037
	for _, o := range cycle {
		if o.lat != nil {
			if err := lat.Merge(o.lat); err != nil {
				return nil, fmt.Errorf("latency merge: %w", err)
			}
		}
		delivered += o.delivered
		offered += o.offered
		dg = (dg ^ o.digest()) * 1099511628211
	}
	return map[string]metric{
		"model.latency_p50_steps": {float64(lat.Quantile(0.5)), "steps"},
		"model.latency_p99_steps": {float64(lat.Quantile(0.99)), "steps"},
		"model.delivered_frac":    {ratio(float64(delivered), float64(offered)), "frac"},
		"model.digest":            {float64(dg >> 11), "hash"},
	}, nil
}
