package obsv

import (
	"multipath/internal/netsim"
)

// RecorderOpts sizes a Recorder's collectors. The zero value gives the
// defaults noted on each field.
type RecorderOpts struct {
	// LatencyBuckets is the width-1 bucket limit of the flit- and
	// message-latency histograms (default 4096; later steps summarize
	// through the overflow bucket).
	LatencyBuckets int
	// QueueBuckets is the width-1 bucket limit of the queue-depth
	// histogram (default 256).
	QueueBuckets int
	// LinkUtil enables per-link utilization time series, keyed by
	// external link id. Memory is O(distinct links × UtilCap), so it
	// is opt-in: a Q_16 workload crosses ~10^6 directed links.
	LinkUtil bool
	// UtilCap bounds the retained samples per utilization series
	// (default 256); longer runs downsample by stride doubling.
	UtilCap int
	// LinkQueues enables per-link queue-depth accumulation (sum, count,
	// max per external link id) — the feedback the adaptive routing
	// strategy re-plans on between measurement windows. Queue depth is
	// not utilization: a link can be fully busy with a short queue or
	// idle behind a long one, so this is a separate opt-in. Stats are
	// kept in flat slices indexed by external link id (memory O(max
	// external id seen) — exact and cheap for the dense hypercube ids,
	// the intended use).
	LinkQueues bool
}

// LinkQueueStat accumulates one link's queue-depth samples: the sum
// and count of StepEnd observations plus the maximum seen. Every link
// of a run is sampled on every step, so the Recorder keeps N lazily: a
// run's step count is folded into its links' N at the next BeginRun,
// at Reset, and whenever the stats are read (LinkQueueDepth,
// EachLinkQueueDepth), which therefore always report the full count.
type LinkQueueStat struct {
	Sum uint64
	N   uint64
	Max int
}

// Mean returns the link's mean observed queue depth (0 when never
// observed).
func (s LinkQueueStat) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.N)
}

// Recorder is the standard netsim.Probe: it folds the event stream of
// one or more simulation runs into latency and queue-depth histograms,
// an aggregate busy-fraction series, and (optionally) per-link
// utilization series. Steps are run-relative, so when the retry
// transport attaches one Recorder across rounds the latency histograms
// read as per-round latency distributions.
//
// A Recorder accumulates across runs until discarded; it is not safe
// for concurrent use. A probe is attached per run (OpenLoopOpts.Probe,
// FaultOpts.Probe, or a *Probed entry point), and every netsim run
// calls its probe from the one goroutine that runs the step loop, so
// recording never crosses a goroutine. Runs on different goroutines
// each need their own Recorder.
type Recorder struct {
	// FlitLatency observes the arrival step of every flit at its
	// destination; MsgLatency the completion step of every delivered
	// message; QueueDepth every link's queue length at every step.
	FlitLatency *Histogram
	MsgLatency  *Histogram
	QueueDepth  *Histogram
	// BusyFraction is the fraction of the run's links that moved a
	// flit, per step (downsampled like every Series).
	BusyFraction *Series

	// Runs, Steps, Delivered, Failed, Moved, Dropped aggregate the
	// run shapes and outcomes observed so far.
	Runs      int
	Steps     int
	Delivered int
	Failed    int
	Moved     uint64
	Dropped   uint64

	opts RecorderOpts
	util map[int]*Series // external link id → utilization series
	// Per-link queue-depth accumulators indexed by external link id
	// (parallel slices sized by BeginRun; RecorderOpts.LinkQueues).
	// lqN lags by lqSteps for the current run's links (see
	// LinkQueueStat).
	lqSum   []uint64
	lqN     []uint64
	lqMax   []int
	lqSteps uint64 // StepEnd calls of the current run not yet in lqN

	// Per-run scratch, rebuilt by BeginRun.
	ext     []int   // copy of the run's dense→external id table
	moved   []int   // flits moved per dense link in the current step
	touched []int32 // dense links with moved > 0, in first-move order
}

// NewRecorder returns a Recorder with default options.
func NewRecorder() *Recorder { return NewRecorderOpts(RecorderOpts{}) }

// NewRecorderOpts returns a Recorder sized by opts.
func NewRecorderOpts(opts RecorderOpts) *Recorder {
	if opts.LatencyBuckets <= 0 {
		opts.LatencyBuckets = 4096
	}
	if opts.QueueBuckets <= 0 {
		opts.QueueBuckets = 256
	}
	if opts.UtilCap <= 0 {
		opts.UtilCap = 256
	}
	r := &Recorder{
		FlitLatency:  NewHistogram(1, opts.LatencyBuckets),
		MsgLatency:   NewHistogram(1, opts.LatencyBuckets),
		QueueDepth:   NewHistogram(1, opts.QueueBuckets),
		BusyFraction: NewSeries(opts.UtilCap),
		opts:         opts,
	}
	if opts.LinkUtil {
		r.util = make(map[int]*Series)
	}
	return r
}

// BeginRun implements netsim.Probe.
func (r *Recorder) BeginRun(info netsim.RunInfo) {
	r.Runs++
	r.foldLinkQueueSteps()
	r.ext = append(r.ext[:0], info.LinkExt...)
	if cap(r.moved) < info.Links {
		r.moved = make([]int, info.Links)
		r.touched = make([]int32, 0, info.Links)
	}
	r.moved = r.moved[:info.Links]
	clear(r.moved)
	r.touched = r.touched[:0]
	if r.opts.LinkQueues {
		top := -1
		for _, id := range r.ext {
			top = max(top, id)
		}
		if n := top + 1 - len(r.lqSum); n > 0 {
			r.lqSum = append(r.lqSum, make([]uint64, n)...)
			r.lqN = append(r.lqN, make([]uint64, n)...)
			r.lqMax = append(r.lqMax, make([]int, n)...)
		}
	}
}

// StepEnd implements netsim.Probe: it samples every link's queue depth
// and closes the step's utilization window. Its cost is one sequential
// scan of queueLen plus work per link whose queue is non-empty or that
// moved a flit this step: the empty queues enter QueueDepth as one
// weighted zero observation, and the per-link queue counts (LinkQueues)
// advance lazily. Only RecorderOpts.LinkUtil adds work per link.
func (r *Recorder) StepEnd(step int, queueLen []int) {
	r.Steps++
	if r.util != nil {
		for l, id := range r.ext[:len(queueLen)] {
			s := r.util[id]
			if s == nil {
				s = NewSeries(r.opts.UtilCap)
				r.util[id] = s
			}
			s.Add(float64(r.moved[l]))
		}
	}
	nonzero := 0
	for l, q := range queueLen {
		if q == 0 {
			continue
		}
		nonzero++
		r.QueueDepth.Observe(q)
		if r.opts.LinkQueues {
			id := r.ext[l]
			r.lqSum[id] += uint64(q)
			r.lqMax[id] = max(r.lqMax[id], q)
		}
	}
	r.QueueDepth.observeZeros(len(queueLen) - nonzero)
	if r.opts.LinkQueues {
		r.lqSteps++
	}
	busy := len(r.touched)
	for _, l := range r.touched {
		r.moved[l] = 0
	}
	r.touched = r.touched[:0]
	if len(queueLen) > 0 {
		r.BusyFraction.Add(float64(busy) / float64(len(queueLen)))
	}
}

// foldLinkQueueSteps adds the current run's pending step count to the
// N of each of its links.
func (r *Recorder) foldLinkQueueSteps() {
	if r.lqSteps == 0 {
		return
	}
	for _, id := range r.ext {
		r.lqN[id] += r.lqSteps
	}
	r.lqSteps = 0
}

// FlitMoved implements netsim.Probe.
func (r *Recorder) FlitMoved(step int, msg, link int32) {
	r.Moved++
	if r.moved[link] == 0 {
		r.touched = append(r.touched, link)
	}
	r.moved[link]++
}

// FlitDelivered implements netsim.Probe.
func (r *Recorder) FlitDelivered(step int, msg int32) {
	r.FlitLatency.Observe(step)
}

// FlitsDropped implements netsim.Probe.
func (r *Recorder) FlitsDropped(step int, msg int32, flits int) {
	r.Dropped += uint64(flits)
}

// MsgDone implements netsim.Probe.
func (r *Recorder) MsgDone(step int, msg int32, delivered bool) {
	if delivered {
		r.Delivered++
		r.MsgLatency.Observe(step)
	} else {
		r.Failed++
	}
}

// LinkUtilization returns the finalized per-link utilization series
// (mean flits moved per step within each downsampling window), keyed
// by external link id. Nil unless RecorderOpts.LinkUtil was set.
func (r *Recorder) LinkUtilization() map[int][]float64 {
	if r.util == nil {
		return nil
	}
	out := make(map[int][]float64, len(r.util))
	for id, s := range r.util {
		out[id] = s.Samples()
	}
	return out
}

// UtilizationOf returns one link's series and whether it was tracked.
func (r *Recorder) UtilizationOf(link int) (*Series, bool) {
	s, ok := r.util[link]
	return s, ok
}

// LinkQueueDepth returns the accumulated queue-depth stat of the given
// external link id and whether that link was ever observed. Requires
// RecorderOpts.LinkQueues.
func (r *Recorder) LinkQueueDepth(link int) (LinkQueueStat, bool) {
	r.foldLinkQueueSteps()
	if link < 0 || link >= len(r.lqN) || r.lqN[link] == 0 {
		return LinkQueueStat{}, false
	}
	return LinkQueueStat{Sum: r.lqSum[link], N: r.lqN[link], Max: r.lqMax[link]}, true
}

// EachLinkQueueDepth calls fn for every observed link in ascending
// external-id order. Requires RecorderOpts.LinkQueues.
func (r *Recorder) EachLinkQueueDepth(fn func(link int, s LinkQueueStat)) {
	r.foldLinkQueueSteps()
	for id, n := range r.lqN {
		if n > 0 {
			fn(id, LinkQueueStat{Sum: r.lqSum[id], N: n, Max: r.lqMax[id]})
		}
	}
}
