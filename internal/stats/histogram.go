package stats

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The latency histogram is log-linear: every octave [2^k, 2^(k+1)) ns
// is cut into histSub equal sub-buckets, so a bucket is at most
// 1/histSub (6.25%) of its lower bound wide, values below histSub ns
// are exact, and a quantile — reported as its bucket's midpoint — is
// within 1/32 (3.125%) of the sample it stands for. The resolution is a
// constant, not an option: every reader (flexc stats, flexload, the
// experiment figures) gets the same one.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	// histMaxBits caps the range: 2^40 ns (~18 minutes) is far past any
	// RPC deadline, and longer observations land in the last bucket.
	histMaxBits = 40
	// HistBuckets is the fixed bucket count of the latency histogram.
	HistBuckets = (histMaxBits - histSubBits + 1) * histSub
)

// bucketOf maps a nanosecond value to its bucket. Values below histSub
// index themselves; above, the octave and the histSubBits bits under
// the leading one select the bucket.
func bucketOf(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - 1 - histSubBits // ns>>e is in [histSub, 2*histSub)
	if i := e<<histSubBits + int(ns>>e); i < HistBuckets {
		return i
	}
	return HistBuckets - 1
}

// bucketMid is the midpoint of bucket i, the value a quantile reports.
func bucketMid(i int) time.Duration {
	if i < histSub {
		return time.Duration(i)
	}
	e := i>>histSubBits - 1
	lo := uint64(histSub+i&(histSub-1)) << e
	return time.Duration(lo + (1<<e-1)/2)
}

// A Histogram is a lock-free log-linear latency histogram. The zero
// value is an empty histogram; Record on a nil *Histogram is a no-op.
// Concurrent Record calls never block each other — every field is an
// independent atomic — and the observation count is the sum of the
// buckets, so it can never disagree with them.
type Histogram struct {
	sum     atomic.Uint64 // nanoseconds
	buckets [HistBuckets]atomic.Uint64
}

// Record adds one duration observation.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(max(d, 0))
	h.buckets[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
}

// Snapshot copies the histogram's current contents.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	s.SumNs = h.sum.Load()
	return s
}

// HistogramSnapshot is a plain-value copy of a Histogram; snapshots
// merge by addition, which is what makes per-shard histograms cheap
// to aggregate. Count is the sum of Buckets.
type HistogramSnapshot struct {
	Count   uint64              `json:"count"`
	SumNs   uint64              `json:"sum_ns"`
	Buckets [HistBuckets]uint64 `json:"buckets"`
}

// Merge adds o's observations into s.
func (s *HistogramSnapshot) Merge(o *HistogramSnapshot) {
	if o == nil {
		return
	}
	s.Count += o.Count
	s.SumNs += o.SumNs
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the average observation (exact: it does not go through
// the buckets), 0 when empty.
func (s *HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNs / s.Count)
}

// Quantile returns the q-quantile (q in [0,1]) as the midpoint of the
// bucket the q-th observation falls in, 0 when empty. It reads only
// Buckets, so a snapshot whose Count was decoded from elsewhere cannot
// mislead it.
func (s *HistogramSnapshot) Quantile(q float64) time.Duration {
	var total uint64
	for _, b := range s.Buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	rank := uint64(min(max(q, 0), 1) * float64(total-1))
	var seen uint64
	for i, b := range s.Buckets {
		if seen += b; seen > rank {
			return bucketMid(i)
		}
	}
	return bucketMid(HistBuckets - 1)
}
