package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/hamdecomp"
	"multipath/internal/netsim"
	"multipath/internal/traffic"
)

// construct-verify: the construction and verification layers and the
// closed-loop engine. Each op builds one theorem's embedding from warm
// substrate caches, verifies it, measures its p-packet costs, and
// drains a width-spread transfer per guest edge through the serial and
// the 2-shard closed-loop engines.

type theorem struct {
	name  string
	build func(n int) (*core.Embedding, error)
	// width is the construction's proven width at dimension n.
	width func(n int) int
}

var theorems = []theorem{
	{"theorem1", cycles.Theorem1, func(n int) int { return cycles.RowSubcubeDim(n) + 1 }},
	{"theorem2", cycles.Theorem2, func(n int) int { return cycles.RowSubcubeDim(n) }},
}

// decomposeSubstrates builds the Hamiltonian decompositions Theorems 1
// and 2 draw on at dimension n (row and column subcubes).
func decomposeSubstrates(n int) error {
	a := cycles.RowSubcubeDim(n)
	for _, k := range []int{a, n - a} {
		if k < 2 {
			continue
		}
		if _, err := hamdecomp.Decompose(k); err != nil {
			return err
		}
	}
	return nil
}

// coldConstruct fills the substrate memo caches for dimension n the way
// a fresh process pays for them — hamdecomp first, then one Theorem 1
// and one Theorem 2 build — recording the hamdecomp share, and returns
// the Theorem 1 embedding.
func coldConstruct(w *workload, n int) (*core.Embedding, error) {
	start := time.Now()
	if err := decomposeSubstrates(n); err != nil {
		return nil, err
	}
	w.hamdecompCold = time.Since(start)
	e, err := cycles.Theorem1(n)
	if err != nil {
		return nil, err
	}
	if _, err := cycles.Theorem2(n); err != nil {
		return nil, err
	}
	return e, nil
}

func setupConstruct(seed int64, sz sizes) (*workload, error) {
	w := &workload{name: "construct-verify"}
	if _, err := coldConstruct(w, sz.constructN); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	c := constructOps{n: sz.constructN, flits: sz.drainFlits, shards: sz.shards}
	for range theorems {
		c.rotate = append(c.rotate, rng.Int63())
	}
	w.ops = []op{{"verify", c.verify}, {"ppacket", c.ppacket}, {"drain", c.drain}}
	pick := rng.Intn(len(theorems))
	small := constructOps{n: sz.crossN, flits: sz.drainFlits, rotate: c.rotate}
	w.crossCheck = func() error { return small.crossCheck(pick) }
	return w, nil
}

// constructOps are the workload's three ops. Each builds both theorems'
// embeddings from warm substrate caches and then verifies them,
// measures their p-packet costs, or drains a width-spread transfer per
// guest edge through the serial and the sharded closed-loop engine.
type constructOps struct {
	n      int
	flits  int
	shards int
	// rotate[i] is the seeded input of theorem i: its drain's messages
	// start at guest edge rotate[i] mod |E|, which moves the engine's
	// FIFO tie-breaks but not the amount of work.
	rotate []int64
}

func (c constructOps) build(t *tracer, o *outcome, th theorem) (*core.Embedding, error) {
	e, err := call(t, "cycles.build", func() (*core.Embedding, error) { return th.build(c.n) })
	if err != nil {
		return nil, fmt.Errorf("%s n=%d: %w", th.name, c.n, err)
	}
	o.guestEdges += int64(len(e.Paths))
	return e, nil
}

func (c constructOps) verify(t *tracer, o *outcome) error {
	for _, th := range theorems {
		e, err := c.build(t, o, th)
		if err != nil {
			return err
		}
		type verdict struct{ width, congestion, cost int }
		v, err := call(t, "core.verify", func() (verdict, error) {
			if err := e.Validate(); err != nil {
				return verdict{}, err
			}
			w, err := e.Width()
			if err != nil {
				return verdict{}, err
			}
			cg, err := e.Congestion()
			if err != nil {
				return verdict{}, err
			}
			cost, err := e.SynchronizedCost()
			return verdict{w, cg, cost}, err
		})
		if err != nil {
			return fmt.Errorf("%s verify: %w", th.name, err)
		}
		o.check(th.name+": width", v.width, th.width(c.n))
		o.require(th.name+": width within Lemma 3 bound", v.width <= cycles.WidthBound(c.n))
		o.check(th.name+": synchronized cost", v.cost, 3)
		o.record(v.congestion)
	}
	return nil
}

var packets = []int{1, 2, 4, 8}

func (c constructOps) ppacket(t *tracer, o *outcome) error {
	for _, th := range theorems {
		e, err := c.build(t, o, th)
		if err != nil {
			return err
		}
		costs, err := call(t, "core.ppacket", func() ([]int, error) { return e.PPacketCosts(packets) })
		if err != nil {
			return fmt.Errorf("%s p-packet costs: %w", th.name, err)
		}
		o.record(costs...)
		// p packets round-robin over w paths put ⌈p/w⌉ on one first link.
		w := th.width(c.n)
		for i, p := range packets {
			o.require(fmt.Sprintf("%s: p-packet cost(%d) >= ceil(p/width)", th.name, p), costs[i] >= (p+w-1)/w)
		}
	}
	return nil
}

// messages builds theorem i's drain messages in its seeded order.
func (c constructOps) messages(t *tracer, e *core.Embedding, i int) ([]*netsim.Message, error) {
	msgs, err := call(t, "traffic.templates", func() ([]*netsim.Message, error) { return traffic.WidthPathMessages(e, c.flits) })
	if err != nil {
		return nil, err
	}
	// WidthPathMessages lists each guest edge's pieces together.
	edges := max(len(e.Paths), 1)
	k := int(c.rotate[i]%int64(edges)) * (len(msgs) / edges)
	return append(msgs[k:], msgs[:k]...), nil
}

func (c constructOps) drain(t *tracer, o *outcome) error {
	for i, th := range theorems {
		e, err := c.build(t, o, th)
		if err != nil {
			return err
		}
		msgs, err := c.messages(t, e, i)
		if err != nil {
			return err
		}
		serial, err := call(t, "netsim.closedloop", func() (*netsim.Result, error) { return netsim.Simulate(msgs, netsim.CutThrough) })
		if err != nil {
			return err
		}
		sharded, err := call(t, "netsim.closedloop", func() (*netsim.Result, error) {
			return netsim.SimulateSharded(msgs, netsim.CutThrough, c.shards)
		})
		if err != nil {
			return err
		}
		o.closedLoop(serial, msgs)
		o.closedLoop(sharded, msgs)
		o.check(th.name+": sharded drain steps == serial", sharded.Steps, serial.Steps)
		o.check(th.name+": sharded drain max queue == serial", sharded.MaxLinkQueue, serial.MaxLinkQueue)
		o.delivered += int64(serial.DeliveredMsgs)
		o.offered += int64(len(msgs))
	}
	return nil
}

// crossCheck compares the production verifiers and closed-loop engine
// with the retained golden models on theorem i at a small dimension.
func (c constructOps) crossCheck(i int) error {
	th := theorems[i]
	e, err := th.build(c.n)
	if err != nil {
		return err
	}
	w, err := e.Width()
	if err != nil {
		return err
	}
	wr, err := e.WidthReference()
	if err != nil {
		return err
	}
	cost, err := e.SynchronizedCost()
	if err != nil {
		return err
	}
	cr, err := e.SynchronizedCostReference()
	if err != nil {
		return err
	}
	if w != wr || cost != cr {
		return fmt.Errorf("%s n=%d: width %d vs reference %d, synchronized cost %d vs reference %d", th.name, c.n, w, wr, cost, cr)
	}
	msgs, err := c.messages(nil, e, i)
	if err != nil {
		return err
	}
	fast, err := netsim.Simulate(msgs, netsim.CutThrough)
	if err != nil {
		return err
	}
	ref, err := netsim.SimulateReference(msgs, netsim.CutThrough)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(fast, ref) {
		return fmt.Errorf("%s n=%d: closed-loop engine diverged from SimulateReference:\n%+v\n%+v", th.name, c.n, *fast, *ref)
	}
	return nil
}
