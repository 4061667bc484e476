package main

import (
	"fmt"

	"multipath/internal/core"
	"multipath/internal/faults"
	"multipath/internal/hypercube"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/routing"
	"multipath/internal/selfheal"
	"multipath/internal/traffic"
)

// heal-faulty: the fault, kill, listener and re-poll paths with no
// probe attached. Ops are self-healing sessions over a Theorem 1
// embedding under Bernoulli-permanent plus burst-window faults (Reroute
// with exponential backoff, and IDA k-of-n), and a single-path
// dimension-order open-loop run on a Bernoulli-faulty hypercube.

func setupHeal(seed int64, sz sizes) (*workload, error) {
	w := &workload{name: "heal-faulty"}
	e, err := coldConstruct(w, sz.healN)
	if err != nil {
		return nil, err
	}
	links := e.Host.DirectedEdges()
	nb := len(e.Paths)
	tr, err := traffic.PoissonArrivals(seed, sz.healRate, nb, nb)
	if err != nil {
		return nil, err
	}
	basePieces := map[selfheal.Strategy]int{selfheal.Reroute: len(tr.Arrivals)}
	for _, a := range tr.Arrivals {
		basePieces[selfheal.IDA] += len(e.Paths[a.Tmpl])
	}
	for pi, p := range sz.healP {
		s := seed*131 + int64(pi)
		sched := faults.Union(faults.Bernoulli(links, p, s),
			faults.BernoulliWindow(links, p, s+911, sz.healBurstFrom, sz.healBurstUntil))
		for _, strat := range []selfheal.Strategy{selfheal.Reroute, selfheal.IDA} {
			h := healSession{e: e, tr: tr, sched: sched, strategy: strat, sz: sz, seed: s,
				basePieces: basePieces[strat]}
			w.ops = append(w.ops, op{kind: "selfheal-" + strat.String(), run: h.run})
		}
	}

	// Single-path dimension-order traffic on a Bernoulli-faulty cube.
	q := hypercube.New(sz.raceDim)
	demands, err := raceDemands(q, []string{"permutation"}, sz.raceFlits, seed)
	if err != nil {
		return nil, err
	}
	d := demands[0]
	lambda := sz.healDimLoad * d.capacity / d.meanWork
	dtr, err := traffic.PoissonArrivals(seed+1, lambda, sz.raceArrivals, len(d.pairs))
	if err != nil {
		return nil, err
	}
	dim := faultyDimOrder{q: q, pairs: d.pairs, tr: dtr, sched: faults.Bernoulli(q.DirectedEdges(), sz.healDimP, seed+2),
		flits: sz.raceFlits, seed: seed}
	w.ops = append(w.ops, op{kind: "dimorder-faulty", run: dim.run})
	w.crossCheck = dim.crossCheck
	return w, nil
}

type healSession struct {
	e          *core.Embedding
	tr         *netsim.Trace
	sched      *faults.Schedule
	strategy   selfheal.Strategy
	sz         sizes
	seed       int64
	basePieces int
}

func (h healSession) run(t *tracer, o *outcome) error {
	o.lat = obsv.NewHistogram(1, 1<<14)
	cfg := selfheal.Config{
		Mode:      netsim.CutThrough,
		Flits:     h.sz.healFlits,
		Strategy:  h.strategy,
		Deadline:  h.sz.healDeadline,
		Faults:    t.faults(h.sched),
		StepLimit: h.sz.healStepLimit,
		Sink:      o.lat,
	}
	if h.strategy == selfheal.IDA {
		cfg.K = h.sz.healK
	} else {
		cfg.MaxRetries = h.sz.healRetries
		cfg.Backoff = selfheal.ExpBackoff{Base: 2, Cap: 32, Jitter: 0.5, Seed: h.seed}
	}
	rep, err := call(t, "selfheal.send", func() (*selfheal.Report, error) {
		return selfheal.Send(h.e, nil, h.tr, cfg)
	})
	if err != nil {
		return fmt.Errorf("selfheal %s: %w", h.strategy, err)
	}
	o.deadLinks += int64(h.sched.FaultyLinks())
	o.heal(rep, len(h.tr.Arrivals), h.basePieces)
	return nil
}

type faultyDimOrder struct {
	q     *hypercube.Q
	pairs []routing.Pair
	tr    *netsim.Trace
	sched *faults.Schedule
	flits int
	seed  int64
}

func (d faultyDimOrder) templates(t *tracer, o *outcome) ([]*netsim.Message, error) {
	tmpls, err := call(t, "routing.templates", func() ([]*netsim.Message, error) {
		return routing.Templates(routing.NewDimOrder(d.q), d.q, d.pairs, d.flits, d.seed)
	})
	if err != nil {
		return nil, err
	}
	o.routes += int64(len(tmpls))
	for _, m := range tmpls {
		o.routeHops += int64(len(m.Route))
	}
	return tmpls, nil
}

func (d faultyDimOrder) run(t *tracer, o *outcome) error {
	tmpls, err := d.templates(t, o)
	if err != nil {
		return err
	}
	o.lat = obsv.NewHistogram(1, 1<<14)
	res, err := call(t, "netsim.openloop", func() (*netsim.OpenLoopResult, error) {
		return netsim.SimulateOpenLoop(tmpls, d.tr.Source(), netsim.OpenLoopOpts{
			Mode: netsim.CutThrough, Faults: t.faults(d.sched), Sink: o.lat, MeasureAfter: warmupStep(d.tr),
		})
	})
	if err != nil {
		return err
	}
	o.deadLinks += int64(d.sched.FaultyLinks())
	o.openLoop(res, true)
	o.delivered += int64(res.DeliveredMsgs)
	o.offered += int64(res.Injected)
	return nil
}

func (d faultyDimOrder) crossCheck() error {
	tmpls, err := d.templates(nil, &outcome{})
	if err != nil {
		return err
	}
	return crossCheckOpenLoop(tmpls, d.tr, d.sched, warmupStep(d.tr))
}
