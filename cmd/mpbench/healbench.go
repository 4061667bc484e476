package main

import (
	"fmt"
	"sync"

	"multipath/internal/cycles"
	"multipath/internal/faults"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/selfheal"
)

// E28: graceful degradation of the self-healing open-loop transport —
// delivered fraction, deadline misses, and post-repair latency
// percentiles versus link-fault rate × offered load, under the same
// coupled Bernoulli draws as the E23 closed-loop baseline (so the two
// are comparable point by point) and under a burst schedule that adds
// a correlated transient outage epoch on top. The sweep is appended to
// BENCH_faults.json next to the closed-loop series.

type healPoint struct {
	P    float64 `json:"p"`
	Rate int     `json:"rate"`
	// DeliveredFraction and DeadlineMissFraction average the per-seed
	// selfheal.Report fractions.
	DeliveredFraction    float64 `json:"delivered_fraction"`
	DeadlineMissFraction float64 `json:"deadline_miss_fraction"`
	// Retries/Reroutes/Abandoned/DeadLinks sum over the seeds.
	Retries   int `json:"retries"`
	Reroutes  int `json:"reroutes"`
	Abandoned int `json:"abandoned"`
	DeadLinks int `json:"dead_links"`
	// Latency digests completion−arrival over all delivered transfers
	// of all seeds; Repaired restricts to transfers that needed at
	// least one retry (empty at p=0).
	Latency  obsv.Summary `json:"latency"`
	Repaired obsv.Summary `json:"repaired_latency"`
}

type healSeries struct {
	// Schedule is "bernoulli" (permanent coupled draws, exactly the
	// E23 fault sets) or "bernoulli+burst" (the same plus a transient
	// window drawn at the same rate).
	Schedule string      `json:"schedule"`
	Backoff  string      `json:"backoff"`
	Points   []healPoint `json:"points"`
}

type selfHealReport struct {
	Embedding  string       `json:"embedding"`
	Strategy   string       `json:"strategy"`
	Width      int          `json:"width"`
	Flits      int          `json:"flits"`
	MaxRetries int          `json:"max_retries"`
	Deadline   int          `json:"deadline"`
	Seeds      int          `json:"seeds"`
	Rates      []int        `json:"rates"`
	Series     []healSeries `json:"series"`
}

// Sweep parameters. Rates are transfer arrivals per step; each run
// starts one transfer per guest edge. The deadline is far above the
// clean cut-through latency, so misses measure healing delay, not the
// baseline transit time.
var (
	healRates      = []int{2, 16}
	healFlits      = 8
	healMaxRetries = 3
	healDeadline   = 48
	healStepLimit  = 5000
	healBurstFrom  = 16
	healBurstUntil = 48
)

type healBackoff struct {
	name string
	b    selfheal.Backoff
}

func healBackoffs() []healBackoff {
	return []healBackoff{
		{"fixed", selfheal.FixedBackoff{Steps: 4}},
		{"exp", selfheal.ExpBackoff{Base: 2, Cap: 32, Jitter: 0.5, Seed: 1}},
	}
}

// healSchedule builds one seed's fault schedule. The permanent part is
// exactly the E23 baseline's coupled Bernoulli draw, so the delivered
// fractions are comparable per (p, seed); the burst variant unions in
// a transient outage epoch drawn independently at the same rate.
func healSchedule(kind string, links int, p float64, seed int64) *faults.Schedule {
	bern := faults.Bernoulli(links, p, seed)
	if kind != "bernoulli+burst" {
		return bern
	}
	return faults.Union(bern, faults.BernoulliWindow(links, p, seed+911, healBurstFrom, healBurstUntil))
}

// healTrace starts one transfer per guest edge, rate arrivals per step
// in edge order.
func healTrace(bundles, rate int) *netsim.Trace {
	tr := &netsim.Trace{}
	for i := 0; i < bundles; i++ {
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: i / rate, Tmpl: int32(i)})
	}
	return tr
}

// measureSelfHealSweep runs the E28 sweep once per process.
var measureSelfHealSweep = sync.OnceValues(func() (*selfHealReport, error) {
	e, err := cycles.Theorem1(8)
	if err != nil {
		return nil, err
	}
	links := e.Host.DirectedEdges()
	nb := len(e.Paths)

	rep := &selfHealReport{
		Embedding:  "Theorem 1 (n=8)",
		Strategy:   selfheal.Reroute.String(),
		Width:      len(e.Paths[0]),
		Flits:      healFlits,
		MaxRetries: healMaxRetries,
		Deadline:   healDeadline,
		Seeds:      faultSeeds,
		Rates:      healRates,
	}
	for _, kind := range []string{"bernoulli", "bernoulli+burst"} {
		for _, bo := range healBackoffs() {
			series := healSeries{Schedule: kind, Backoff: bo.name}
			for _, p := range faultProbs {
				for _, rate := range healRates {
					pt := healPoint{P: p, Rate: rate}
					lat := obsv.NewHistogram(1, 1<<12)
					rept := obsv.NewHistogram(1, 1<<12)
					var fracSum, missSum float64
					for seed := 1; seed <= faultSeeds; seed++ {
						r, err := selfheal.Send(e, nil, healTrace(nb, rate), selfheal.Config{
							Mode:         netsim.CutThrough,
							Flits:        healFlits,
							MaxRetries:   healMaxRetries,
							Deadline:     healDeadline,
							Backoff:      bo.b,
							Faults:       healSchedule(kind, links, p, int64(seed)),
							StepLimit:    healStepLimit,
							Sink:         lat,
							RepairedSink: rept,
						})
						if err != nil {
							return nil, fmt.Errorf("E28 %s/%s/p=%g/rate=%d/seed=%d: %w",
								kind, bo.name, p, rate, seed, err)
						}
						fracSum += r.DeliveredFraction
						missSum += r.DeadlineMissFraction
						pt.Retries += r.Retries
						pt.Reroutes += r.Reroutes
						pt.Abandoned += r.Abandoned
						pt.DeadLinks += r.DeadLinks
					}
					pt.DeliveredFraction = fracSum / float64(faultSeeds)
					pt.DeadlineMissFraction = missSum / float64(faultSeeds)
					pt.Latency = lat.Summarize()
					pt.Repaired = rept.Summarize()
					series.Points = append(series.Points, pt)
				}
			}
			rep.Series = append(rep.Series, series)
		}
	}
	return rep, nil
})

// runE28 renders the degradation curves: the self-healing transport's
// delivered fraction against the E23 single-path closed-loop baseline
// at the same coupled fault draws, with deadline misses and
// post-repair latency percentiles per backoff policy.
func runE28() (*table, error) {
	rep, err := measureSelfHealSweep()
	if err != nil {
		return nil, err
	}
	base, err := measureFaultSweep()
	if err != nil {
		return nil, err
	}
	baseline := map[float64]float64{}
	for _, s := range base.Series {
		if s.Embedding == rep.Embedding && s.Strategy == "single-path" {
			for _, pt := range s.Points {
				baseline[pt.P] = pt.DeliveredFraction
			}
		}
	}
	tab := &table{headers: []string{
		"schedule", "backoff", "p", "rate", "delivered", "single-path", "miss frac", "retries", "reroutes", "repair p99",
	}}
	for _, s := range rep.Series {
		for _, pt := range s.Points {
			rp99 := "-"
			if pt.Repaired.N > 0 {
				rp99 = fmt.Sprintf("%d", pt.Repaired.P99)
			}
			tab.addRow(
				s.Schedule,
				s.Backoff,
				fmt.Sprintf("%.3f", pt.P),
				fmt.Sprintf("%d", pt.Rate),
				fmt.Sprintf("%.3f", pt.DeliveredFraction),
				fmt.Sprintf("%.3f", baseline[pt.P]),
				fmt.Sprintf("%.3f", pt.DeadlineMissFraction),
				fmt.Sprintf("%d", pt.Retries),
				fmt.Sprintf("%d", pt.Reroutes),
				rp99,
			)
		}
	}
	tab.note("%s, width %d, %d-flit transfers, ≤%d retries, deadline %d steps, %d seeds per "+
		"point; the permanent fault draws are exactly the E23 baseline's.",
		rep.Embedding, rep.Width, rep.Flits, rep.MaxRetries, rep.Deadline, rep.Seeds)
	return tab, nil
}
