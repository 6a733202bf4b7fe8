package main

import (
	"math"
	"math/bits"
)

// latHist records latencies in log-linear buckets: values below subCount
// are exact, larger ones fall in one of subCount linear sub-buckets per
// power of two, so a bucket is never wider than 1/subCount (0.78%) of its
// lower bound. telemetry.Histogram is deliberately not used here: its
// power-of-two buckets place a percentile only somewhere inside a 2×
// band, far wider than the bounds this benchmark enforces.
type latHist struct {
	counts [numBuckets]uint64
	n      uint64
}

const (
	subBits    = 7
	subCount   = 1 << subBits
	numBuckets = (64 - subBits + 1) * subCount
)

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - 1 // e >= subBits
	sub := (v >> (e - subBits)) & (subCount - 1)
	return (e-subBits+1)*subCount + int(sub)
}

// bucketRange returns bucket b's lower bound and width.
func bucketRange(b int) (lo, width float64) {
	if b < subCount {
		return float64(b), 1
	}
	o := b / subCount
	sub := b % subCount
	w := math.Ldexp(1, o-1)
	return float64(subCount+sub) * w, w
}

func (h *latHist) observe(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile: the value of rank
// ceil(q·n) among the recorded values in ascending order. Inside a bucket
// wider than 1 the rank is placed by linear interpolation, so the result
// is within one bucket width of the exact order statistic. It returns 0
// for an empty histogram.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var below uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if below+c >= rank {
			lo, w := bucketRange(b)
			if w == 1 {
				return lo
			}
			return lo + w*(float64(rank-below)-0.5)/float64(c)
		}
		below += c
	}
	return 0 // unreachable: rank <= n
}
