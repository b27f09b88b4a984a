package main

import (
	"math/bits"
	"sort"
)

// hist is the benchmark's own latency histogram: log-linear, 128
// sub-buckets per octave, so a bucket is at most 1/128 (0.78%) wide
// and a quantile read from it is within 1% of the true sample.
// internal/stats' power-of-two histogram is not used here: it reports
// every percentile as a bucket edge (±100%), which cannot gate a PR.
//
// A hist is owned by one goroutine; callers keep one each and merge
// after the pass.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values up to 2^40 ns (~18 min) fit; anything larger lands in the
	// last bucket.
	histOctaves = 40 - histSubBits
	histBuckets = (histOctaves + 1) * histSub
)

// histIndex maps a non-negative value to its bucket. Values below
// histSub are exact; above, the top histSubBits+1 bits select the
// bucket.
func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 - histSubBits // v >> e is in [histSub, 2*histSub)
	i := (e+1)*histSub + int(v>>uint(e)) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histValue is the midpoint of bucket i, the value a quantile reports.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := uint(i/histSub - 1)
	lo := int64(histSub+i%histSub) << e
	return float64(lo) + float64(int64(1)<<e)/2 - 0.5
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// mean is exact (it does not go through the buckets); 0 when empty.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q-quantile (0 < q <= 1), 0 for an empty hist.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen > rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// median of a small sample; the slice is sorted in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}
