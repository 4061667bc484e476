package obsv

import "fmt"

// Merge folds a histogram over the same value space into h by bucket
// summation. The widths must match; of differing bucket limits h keeps
// the larger.
func (h *Histogram) Merge(o *Histogram) error {
	if h.Width != o.Width {
		return fmt.Errorf("obsv: merging histograms of width %d and %d", h.Width, o.Width)
	}
	h.limit = max(h.limit, o.limit)
	if n := len(o.Counts) - len(h.Counts); n > 0 {
		h.Counts = append(h.Counts, make([]uint64, n)...)
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Over += o.Over
	h.N += o.N
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	return nil
}
