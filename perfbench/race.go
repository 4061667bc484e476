package main

import (
	"fmt"
	"math/rand"
	"reflect"

	"multipath/internal/hypercube"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/routing"
	"multipath/internal/traffic"
)

// race-observed: the E29 clean race with observation left on. Every op
// is one (contender, pattern, load) point: fresh Poisson arrivals,
// fresh route templates, one open-loop simulation with an obsv
// Recorder (LinkQueues on) and a latency histogram attached.
// Adaptive runs through routing.Run, which attaches its own feedback
// Recorder between windows.

var raceContenders = []string{"dimorder", "valiant", "minimal", "adaptive", "multipath"}

type raceDemand struct {
	pattern string
	pairs   []routing.Pair
	// capacity/meanWork turn a load into an arrival rate: capacity is
	// the dimension-order clean drain rate (flit-hops per step) on the
	// pattern's reference demand, meanWork its mean flit-hops per
	// message.
	capacity, meanWork float64
}

func newRaceStrategy(name string, q *hypercube.Q) routing.Strategy {
	switch name {
	case "dimorder":
		return routing.NewDimOrder(q)
	case "valiant":
		return routing.NewValiant(q)
	case "minimal":
		return routing.NewMinimalOblivious(q)
	case "adaptive":
		return routing.NewAdaptive(q)
	}
	panic("unknown contender " + name)
}

// raceDemands draws each pattern's pairs from seed. Loads normalize to
// the pattern's reference demand (seed 0), so a load names the same
// arrival rate for every seed and only the drawn pairs and arrivals
// vary.
func raceDemands(q *hypercube.Q, patterns []string, flits int, seed int64) ([]raceDemand, error) {
	var out []raceDemand
	for _, p := range patterns {
		ref, err := traffic.PatternPairs(q, p, 0)
		if err != nil {
			return nil, fmt.Errorf("%s pairs: %w", p, err)
		}
		base, err := routing.Templates(routing.NewDimOrder(q), q, ref, flits, 0)
		if err != nil {
			return nil, err
		}
		drain, err := netsim.Simulate(base, netsim.CutThrough)
		if err != nil {
			return nil, fmt.Errorf("%s capacity drain: %w", p, err)
		}
		work := 0
		for _, m := range base {
			work += m.Flits * len(m.Route)
		}
		pairs, err := traffic.PatternPairs(q, p, seed)
		if err != nil {
			return nil, fmt.Errorf("%s pairs: %w", p, err)
		}
		out = append(out, raceDemand{
			pattern:  p,
			pairs:    pairs,
			capacity: float64(drain.FlitsMoved) / float64(max(drain.Steps, 1)),
			meanWork: float64(work) / float64(len(base)),
		})
	}
	return out, nil
}

// racePoints are the (pattern, load) points every contender runs: both
// patterns at the saturating load, and the permutation at the sparse
// load. Transpose at the sparse load is left out: its rate, normalized
// to dimension order's low transpose drain capacity, stretches one
// multipath op to ten times the op budget. Five contenders on three
// points make an odd cycle, so the median op falls inside one op kind's
// samples rather than on the boundary between two kinds.
var racePoints = []struct {
	pattern string
	load    float64
}{{"permutation", 0.3}, {"permutation", 1.1}, {"transpose", 1.1}}

func setupRace(seed int64, sz sizes) (*workload, error) {
	q := hypercube.New(sz.raceDim)
	demands, err := raceDemands(q, []string{"permutation", "transpose"}, sz.raceFlits, seed)
	if err != nil {
		return nil, err
	}
	byPattern := map[string]raceDemand{}
	for _, d := range demands {
		byPattern[d.pattern] = d
	}
	w := &workload{name: "race-observed"}
	var sparse []racePoint // template ops at the sparse load
	for _, rp := range racePoints {
		for _, c := range raceContenders {
			pt := racePoint{q: q, d: byPattern[rp.pattern], contender: c, load: rp.load, sz: sz,
				seed: seed + int64(len(w.ops))}
			w.ops = append(w.ops, op{kind: fmt.Sprintf("%s-%s-%g", c, rp.pattern, rp.load), run: pt.run})
			if rp.load < 1 && c != "adaptive" && c != "multipath" {
				sparse = append(sparse, pt)
			}
		}
	}
	// Cross-check one seed-chosen sparse-load template op against the
	// retained naive open-loop engine.
	pt := sparse[rand.New(rand.NewSource(seed)).Intn(len(sparse))]
	w.crossCheck = pt.crossCheck
	return w, nil
}

type racePoint struct {
	q         *hypercube.Q
	d         raceDemand
	contender string
	load      float64
	sz        sizes
	seed      int64
}

func (p racePoint) arrivals(t *tracer) (*netsim.Trace, error) {
	lambda := p.load * p.d.capacity / p.d.meanWork
	return call(t, "traffic.arrivals", func() (*netsim.Trace, error) {
		return traffic.PoissonArrivals(p.seed, lambda, p.sz.raceArrivals, len(p.d.pairs))
	})
}

// warmupStep is the step of the first arrival past the leading 20%,
// the E26/E29 steady-state cutoff.
func warmupStep(tr *netsim.Trace) int {
	return tr.Arrivals[len(tr.Arrivals)/5].Step
}

func (p racePoint) templates(t *tracer, o *outcome) ([]*netsim.Message, error) {
	tmpls, err := call(t, "routing.templates", func() ([]*netsim.Message, error) {
		return routing.Templates(newRaceStrategy(p.contender, p.q), p.q, p.d.pairs, p.sz.raceFlits, p.seed)
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

func (p racePoint) run(t *tracer, o *outcome) error {
	tr, err := p.arrivals(t)
	if err != nil {
		return err
	}
	o.lat = obsv.NewHistogram(1, 1<<14)
	after := warmupStep(tr)
	switch p.contender {
	case "adaptive":
		res, err := call(t, "routing.run", func() (*routing.RunResult, error) {
			return routing.Run(routing.NewAdaptive(p.q), p.q, p.d.pairs, tr, routing.RunConfig{
				Flits: p.sz.raceFlits, Windows: p.sz.raceWindows, Seed: p.seed,
				Mode: netsim.CutThrough, WarmupFrac: 0.2, Sink: o.lat,
			})
		})
		if err != nil {
			return err
		}
		o.routes += int64(res.Windows * len(p.d.pairs))
		o.openLoop(&res.OpenLoopResult, false)
		o.delivered += int64(res.DeliveredMsgs)
		o.offered += int64(res.Injected)
		return nil
	case "multipath":
		type built struct {
			tmpls []*netsim.Message
			w     int
		}
		b, err := call(t, "traffic.templates", func() (built, error) {
			tmpls, w, err := traffic.DisjointPathTemplates(p.q, p.d.pairs, p.sz.raceFlits)
			return built{tmpls, w}, err
		})
		if err != nil {
			return err
		}
		exp := &netsim.Trace{Arrivals: make([]netsim.Arrival, 0, len(tr.Arrivals)*b.w)}
		for _, a := range tr.Arrivals {
			for j := 0; j < b.w; j++ {
				exp.Arrivals = append(exp.Arrivals, netsim.Arrival{Step: a.Step, Tmpl: a.Tmpl*int32(b.w) + int32(j)})
			}
		}
		return p.simulate(t, o, b.tmpls, exp, after)
	default:
		tmpls, err := p.templates(t, o)
		if err != nil {
			return err
		}
		return p.simulate(t, o, tmpls, tr, after)
	}
}

// simulate runs one observed open-loop simulation and checks that the
// Recorder saw exactly what the engine reports.
func (p racePoint) simulate(t *tracer, o *outcome, tmpls []*netsim.Message, tr *netsim.Trace, after int) error {
	rec := obsv.NewRecorderOpts(obsv.RecorderOpts{LinkQueues: true})
	res, err := call(t, "netsim.openloop", func() (*netsim.OpenLoopResult, error) {
		return netsim.SimulateOpenLoop(tmpls, tr.Source(), netsim.OpenLoopOpts{
			Mode: netsim.CutThrough, Probe: t.probe(rec), Sink: o.lat, MeasureAfter: after,
		})
	})
	if err != nil {
		return err
	}
	o.openLoop(res, true)
	o.delivered += int64(res.DeliveredMsgs)
	o.offered += int64(res.Injected)
	o.check("obsv: recorder moved == engine flits moved", int(rec.Moved), res.FlitsMoved)
	o.check("obsv: recorder delivered == engine delivered", rec.Delivered, res.DeliveredMsgs)
	o.check("obsv: recorder simulated steps == steps - skipped", rec.Steps, res.Steps-res.SkippedSteps)
	return nil
}

// crossCheck replays one template op through the retained reference
// engine and requires an identical result and latency histogram.
func (p racePoint) crossCheck() error {
	tr, err := p.arrivals(nil)
	if err != nil {
		return err
	}
	tmpls, err := p.templates(nil, &outcome{})
	if err != nil {
		return err
	}
	return crossCheckOpenLoop(tmpls, tr, nil, warmupStep(tr))
}

// crossCheckOpenLoop compares the production open-loop engine with
// its golden model on one input.
func crossCheckOpenLoop(tmpls []*netsim.Message, tr *netsim.Trace, lf netsim.LinkFaults, after int) error {
	hFast, hRef := obsv.NewHistogram(1, 1<<14), obsv.NewHistogram(1, 1<<14)
	fast, err := netsim.SimulateOpenLoop(tmpls, tr.Source(), netsim.OpenLoopOpts{
		Mode: netsim.CutThrough, Faults: lf, Sink: hFast, MeasureAfter: after})
	if err != nil {
		return err
	}
	ref, err := netsim.SimulateOpenLoopReference(tmpls, tr.Source(), netsim.OpenLoopOpts{
		Mode: netsim.CutThrough, Faults: lf, Sink: hRef, MeasureAfter: after})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(fast, ref) || !reflect.DeepEqual(hFast, hRef) {
		return fmt.Errorf("open-loop engine diverged from SimulateOpenLoopReference:\n%+v\n%+v", *fast, *ref)
	}
	return nil
}
