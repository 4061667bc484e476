package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"multipath/internal/netsim"
	"multipath/internal/obsv"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Parent is the index of the enclosing span (-1
// for an op's root span); Op is the op that issued the call. Inner is
// time inside the span that a forwarding wrapper attributed to another
// layer (obsv.StepEnd under netsim.openloop), so self time excludes it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Inner  int64  `json:"inner_ns,omitempty"`
}

// tracer keeps spans in memory for one traced phase. A nil *tracer is
// the untraced mode: every method is a no-op, so ops call it
// unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	op    int32

	// Counts made by the forwarding wrappers.
	stepEndNS    int64
	stepEndCalls int64
	queueSamples int64
	flitEvents   int64
	statusCalls  atomic.Int64 // Status may run on a shard worker
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens the root span of op id.
func (t *tracer) beginOp(id int, kind string) {
	if t == nil {
		return
	}
	t.op = int32(id)
	t.begin("op." + kind)
}

func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.end()
	t.op = -1
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: t.op})
	t.stack = append(t.stack, int32(len(t.spans)-1))
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[top].End = t.now()
}

// call wraps one layer call in a span named after the layer.
func call[T any](t *tracer, name string, f func() (T, error)) (T, error) {
	t.begin(name)
	v, err := f()
	t.end()
	return v, err
}

// innerToCurrent charges d of the open span to a wrapped layer.
func (t *tracer) innerToCurrent(d int64) {
	if n := len(t.stack); n > 0 {
		t.spans[t.stack[n-1]].Inner += d
	}
}

// selfTimes returns each span name's summed self time: duration minus
// the child spans and wrapper-attributed time it covers.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i] - s.Inner)
	}
	return out
}

// writeSpans writes the environment stamp and then the spans as JSON
// lines.
func (t *tracer) writeSpans(path, env string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"env\":%s}\n", env)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probe returns what an op attaches as its netsim.Probe: the recorder
// itself untraced, or a forwarding wrapper that times StepEnd and
// counts the events it sees.
func (t *tracer) probe(rec *obsv.Recorder) netsim.Probe {
	if t == nil {
		return rec
	}
	return &tracedProbe{rec: rec, t: t}
}

// faults returns the fault model an op hands the engine: the model
// itself untraced, or a wrapper counting Status queries.
func (t *tracer) faults(f netsim.LinkFaults) netsim.LinkFaults {
	if t == nil || f == nil {
		return f
	}
	return &countedFaults{f: f, t: t}
}

type tracedProbe struct {
	rec *obsv.Recorder
	t   *tracer
}

func (p *tracedProbe) BeginRun(info netsim.RunInfo) { p.rec.BeginRun(info) }

func (p *tracedProbe) StepEnd(step int, queueLen []int) {
	start := time.Now()
	p.rec.StepEnd(step, queueLen)
	d := int64(time.Since(start))
	p.t.stepEndNS += d
	p.t.stepEndCalls++
	p.t.queueSamples += int64(len(queueLen))
	p.t.innerToCurrent(d)
}

func (p *tracedProbe) FlitMoved(step int, msg, link int32) {
	p.t.flitEvents++
	p.rec.FlitMoved(step, msg, link)
}

func (p *tracedProbe) FlitDelivered(step int, msg int32) { p.rec.FlitDelivered(step, msg) }

func (p *tracedProbe) FlitsDropped(step int, msg int32, flits int) {
	p.rec.FlitsDropped(step, msg, flits)
}

func (p *tracedProbe) MsgDone(step int, msg int32, delivered bool) {
	p.rec.MsgDone(step, msg, delivered)
}

type countedFaults struct {
	f netsim.LinkFaults
	t *tracer
}

func (c *countedFaults) Status(link, step int) (bool, bool) {
	c.t.statusCalls.Add(1)
	return c.f.Status(link, step)
}

func (c *countedFaults) Horizon() int { return c.f.Horizon() }

// spansPath names the span file of one traced run.
func spansPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
