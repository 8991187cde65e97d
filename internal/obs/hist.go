package obs

import "math/bits"

// Histogram is a fixed-bucket log-scale histogram (the HDR shape): each
// power-of-two octave is split into 2^histSubBits sub-buckets, so any
// recorded value is off by at most 1/2^histSubBits (12.5%) — plenty for
// latency quantiles — with a small fixed footprint and O(1) Observe.
// Values are int64 (nanoseconds when recording latencies); negatives
// clamp to zero.
const (
	histSubBits = 3
	histSubs    = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSubs
)

// Histogram records int64 samples. The zero value is NOT ready; use
// NewHistogram. A nil histogram reads as empty.
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < histSubs {
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1
	shift := msb - histSubBits
	sub := int(v>>uint(shift)) & (histSubs - 1)
	return (msb-histSubBits+1)*histSubs + sub
}

// bucketMid returns a representative value (midpoint) for bucket idx.
func bucketMid(idx int) int64 {
	if idx < histSubs {
		return int64(idx)
	}
	block := idx / histSubs // = msb - histSubBits + 1
	sub := idx % histSubs
	shift := uint(block - 1)
	lo := int64(histSubs+sub) << shift
	width := int64(1) << shift
	return lo + (width-1)/2
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Count reports how many samples were recorded.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) to bucket resolution.
// Quantile(1) returns the exact max; an empty histogram returns 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	// rank of the sample at quantile q, 1-based.
	rank := int64(q*float64(h.n-1)) + 1
	var seen int64
	for i, cnt := range h.counts {
		seen += cnt
		if seen >= rank {
			mid := bucketMid(i)
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}
