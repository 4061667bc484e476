// Package obsv turns the netsim probe event stream into the
// distributions the paper's claims are stated over: latency and
// queue-depth histograms with p50/p95/p99 summaries, per-link
// utilization time series with bounded downsampling, and a JSONL trace
// export for offline inspection.
//
// The package is deliberately off the simulator's hot path: netsim
// knows only the Probe interface (a nil field when observation is
// off), so the cost of observation is paid only by runs that asked for
// it. That cost is still kept proportional to activity: Recorder does
// per-link work only for links that queued or moved a flit in a step,
// and histograms allocate buckets only up to the highest value they
// have seen.
package obsv

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bucket counting histogram over non-negative
// integer values (steps, queue depths). Bucket i counts values v with
// i*Width ≤ v < (i+1)*Width; values at or beyond buckets*Width (the
// bucket limit given to NewHistogram) land in the overflow bucket,
// which quantile queries report conservatively as the maximum observed
// value. With Width 1 (the default used by Recorder) quantiles over
// in-range values are exact.
type Histogram struct {
	Width int
	// Counts holds the in-range buckets observed so far: it grows on
	// demand, so len(Counts) is the highest bucket observed + 1 (0
	// before any in-range value) and never exceeds the bucket limit.
	Counts []uint64
	// Over counts values beyond the bucketed range.
	Over uint64
	// N, Sum, Max summarize every observed value (including overflow).
	N   uint64
	Sum int64
	Max int

	limit int // bucket limit: values at or beyond limit*Width overflow
}

// NewHistogram returns a histogram with the given bucket width and
// bucket limit. Width < 1 is treated as 1; buckets < 1 as 1. No bucket
// is allocated until a value lands in it.
func NewHistogram(width, buckets int) *Histogram {
	if width < 1 {
		width = 1
	}
	if buckets < 1 {
		buckets = 1
	}
	// Counts starts non-nil, as Reset leaves it, so a reset histogram
	// and a fresh one compare equal.
	return &Histogram{Width: width, Counts: []uint64{}, limit: buckets}
}

// Observe records one value. Negative values are clamped to 0 (they do
// not occur in the probe stream; the clamp keeps the type total).
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	h.N++
	h.Sum += int64(v)
	if v > h.Max {
		h.Max = v
	}
	if b := v / h.Width; b < len(h.Counts) {
		h.Counts[b]++
	} else if b < h.limit {
		h.Counts = append(h.Counts, make([]uint64, b+1-len(h.Counts))...)
		h.Counts[b]++
	} else {
		h.Over++
	}
}

// observeZeros records k observations of the value 0 at once.
func (h *Histogram) observeZeros(k int) {
	if k <= 0 {
		return
	}
	h.N += uint64(k)
	if len(h.Counts) == 0 {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[0] += uint64(k)
}

// Mean returns the mean observed value, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Quantile returns an upper bound for the q-th quantile (q in [0, 1]):
// the inclusive upper edge of the bucket containing the ⌈q·N⌉-th
// smallest value, or Max if that value overflowed the bucket range.
// Empty histograms return 0.
func (h *Histogram) Quantile(q float64) int {
	if h.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.N)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			upper := (i+1)*h.Width - 1
			if upper > h.Max {
				upper = h.Max
			}
			return upper
		}
	}
	return h.Max
}

// Summary is the fixed quantile digest exported to JSON reports.
type Summary struct {
	N    uint64  `json:"n"`
	Mean float64 `json:"mean"`
	P50  int     `json:"p50"`
	P95  int     `json:"p95"`
	P99  int     `json:"p99"`
	Max  int     `json:"max"`
}

// Summarize digests the histogram into its p50/p95/p99 view.
func (h *Histogram) Summarize() Summary {
	return Summary{
		N:    h.N,
		Mean: h.Mean(),
		P50:  h.Quantile(0.50),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		Max:  h.Max,
	}
}

// Bucket is one non-empty histogram bucket in exported form: Le is the
// inclusive upper edge, Count the number of values at or below it and
// above the previous bucket's edge.
type Bucket struct {
	Le    int    `json:"le"`
	Count uint64 `json:"count"`
}

// NonEmptyBuckets returns the non-empty buckets in ascending order,
// with the overflow bucket (if any) appended under Le = Max.
func (h *Histogram) NonEmptyBuckets() []Bucket {
	var out []Bucket
	for i, c := range h.Counts {
		if c > 0 {
			out = append(out, Bucket{Le: (i+1)*h.Width - 1, Count: c})
		}
	}
	if h.Over > 0 {
		out = append(out, Bucket{Le: h.Max, Count: h.Over})
	}
	return out
}

// Series is a bounded-memory time series: Add is called once per step,
// and once the buffer would exceed its capacity the series halves its
// resolution — adjacent samples are merged into their mean and the
// stride (steps per retained sample) doubles. Memory therefore stays
// at most Cap samples while the whole run remains covered, at a
// resolution that degrades gracefully (deterministically — no random
// reservoir draws, so runs stay replayable) as the run grows.
type Series struct {
	capacity int
	stride   int
	samples  []float64
	acc      float64 // partial window under construction
	accN     int
	n        uint64 // total Add calls
}

// NewSeries returns a series that retains at most capacity samples.
// Capacities below 2 are raised to 2, odd ones rounded up: halving
// merges samples in pairs, so the buffer must hold an even count.
func NewSeries(capacity int) *Series {
	if capacity < 2 {
		capacity = 2
	}
	if capacity%2 == 1 {
		capacity++
	}
	return &Series{capacity: capacity, stride: 1}
}

// Add records the value of the next step.
func (s *Series) Add(v float64) {
	s.n++
	s.acc += v
	s.accN++
	if s.accN < s.stride {
		return
	}
	if len(s.samples) == s.capacity {
		half := s.samples[:0]
		for i := 0; i+1 < s.capacity; i += 2 {
			half = append(half, (s.samples[i]+s.samples[i+1])/2)
		}
		s.samples = half
		s.stride *= 2
		// The just-closed window is now half a window at the new
		// stride; keep accumulating into it.
		s.accN = s.stride / 2
		return
	}
	s.samples = append(s.samples, s.acc/float64(s.accN))
	s.acc, s.accN = 0, 0
}

// Stride returns the current number of steps per retained sample.
func (s *Series) Stride() int { return s.stride }

// Len returns the total number of Add calls.
func (s *Series) Len() uint64 { return s.n }

// Samples returns the retained samples in order, including the mean of
// a trailing partially-filled window. The result is a copy.
func (s *Series) Samples() []float64 {
	out := make([]float64, 0, len(s.samples)+1)
	out = append(out, s.samples...)
	if s.accN > 0 {
		out = append(out, s.acc/float64(s.accN))
	}
	return out
}

// String identifies the series shape in test failures.
func (s *Series) String() string {
	return fmt.Sprintf("Series{n=%d stride=%d samples=%d}", s.n, s.stride, len(s.samples))
}
