package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"flexrpc/internal/stats"
)

// Admission control: the server-side half of the overload story. An
// Admission controller sits in front of the session layer and decides
// each call before anything about it is decoded — from nothing but
// the 16-byte session header's client id and flag bits — so a server
// drowning in requests spends almost nothing per rejected call. The
// decision path is a handful of atomics and two preallocated pushback
// frames: admitting or rejecting a call allocates zero bytes.
//
// Three gates, in the order they run:
//
//  1. Drain: a draining server rejects everything with a
//     sessDraining pushback.
//  2. Load shedder: a Clock-driven controller recomputes the recent
//     p99 from the stats endpoint's latency histograms (bucket deltas
//     between checks, so old calm traffic cannot mask a current
//     storm) and sheds by level with hysteresis — level 1 sheds
//     non-[idempotent] traffic first (it is the expensive kind: it
//     pins reply-cache entries and cannot be retried cheaply), level
//     2 sheds everything.
//  3. Caps: a global max-inflight bound and a per-client fair-share
//     bound keyed by the session client id, so one greedy client
//     cannot starve the rest even below the global cap.

// AdmissionOptions configure an Admission controller.
type AdmissionOptions struct {
	// MaxInflight bounds concurrently admitted calls across all
	// clients; 0 means unlimited.
	MaxInflight int
	// PerClient bounds concurrently admitted calls per session client
	// id (fair-queue cap); 0 means unlimited.
	PerClient int
	// RetryAfter is the advisory retry-after carried in overload
	// pushback frames; 0 means DefaultRetryAfter.
	RetryAfter time.Duration

	// ShedP99 enables the stats-informed load shedder: when the p99
	// latency observed since the previous check crosses it, the
	// controller raises the shed level. 0 disables shedding.
	ShedP99 time.Duration
	// ShedExitP99 is the hysteresis exit bound: the shed level drops
	// only when the recent p99 falls below it. 0 means ShedP99/2.
	ShedExitP99 time.Duration
	// ShedInterval is how often the shedder recomputes; 0 means
	// DefaultShedInterval. Recomputation is driven lazily from the
	// admission path (no background goroutine) and gated by Clock, so
	// FakeClock tests step it deterministically.
	ShedInterval time.Duration

	// Clock gates shedder recomputation; nil means WallClock.
	Clock Clock
	// Stats supplies the latency histograms the shedder reads and
	// receives the shed/drain counters; nil disables the shedder's
	// input (it then never raises a level) and records nothing.
	Stats *stats.Endpoint
}

// DefaultRetryAfter is the advisory retry-after in pushback frames
// when AdmissionOptions does not set one.
const DefaultRetryAfter = 5 * time.Millisecond

// DefaultShedInterval is the shedder's recompute period when
// AdmissionOptions does not set one.
const DefaultShedInterval = 100 * time.Millisecond

// admissionClients is the fair-share table size; client ids hash onto
// it, so the cap is per hash slot (exact per-client below 256 active
// clients, statistical fairness above).
const admissionClients = 256

// shedLevelMax is the top shed level: everything sheds.
const shedLevelMax = 2

// An Admission is the admission controller. All methods are safe on a
// nil *Admission (the disabled state: everything admits).
type Admission struct {
	maxInflight int64
	perClient   int64

	inflight atomic.Int64
	clients  [admissionClients]atomic.Int64
	draining atomic.Bool

	// Preallocated pushback frames: rejection writes nothing, it just
	// returns one of these shared immutable slices.
	overFrame  []byte
	drainFrame []byte

	clock Clock
	stats *stats.Endpoint

	// Shedder state. level moves by one per recompute, up when the
	// inter-check p99 exceeds shedP99, down when it falls below
	// exitP99 (hysteresis: the band between them holds the level).
	shedP99  time.Duration
	exitP99  time.Duration
	interval time.Duration
	level    atomic.Int32
	nextAt   atomic.Int64 // next recompute, Clock nanos; CAS-elected

	smu   sync.Mutex // recompute critical section
	prev  stats.HistogramSnapshot
	cur   stats.HistogramSnapshot
	delta stats.HistogramSnapshot
}

// NewAdmission builds a controller from o.
func NewAdmission(o AdmissionOptions) *Admission {
	if o.RetryAfter <= 0 {
		o.RetryAfter = DefaultRetryAfter
	}
	if o.ShedExitP99 <= 0 {
		o.ShedExitP99 = o.ShedP99 / 2
	}
	if o.ShedInterval <= 0 {
		o.ShedInterval = DefaultShedInterval
	}
	if o.Clock == nil {
		o.Clock = WallClock
	}
	a := &Admission{
		maxInflight: int64(o.MaxInflight),
		perClient:   int64(o.PerClient),
		overFrame:   AppendPushbackFrame(nil, false, o.RetryAfter),
		drainFrame:  AppendPushbackFrame(nil, true, o.RetryAfter),
		clock:       o.Clock,
		stats:       o.Stats,
		shedP99:     o.ShedP99,
		exitP99:     o.ShedExitP99,
		interval:    o.ShedInterval,
	}
	a.nextAt.Store(o.Clock.Now().UnixNano() + int64(a.interval))
	return a
}

// SetStats points the controller's shed/drain counters (and the
// shedder's histogram input) at e, replacing AdmissionOptions.Stats.
// Set before admitting; a nil endpoint records nothing and disables
// the shedder's input.
func (a *Admission) SetStats(e *stats.Endpoint) {
	if a != nil {
		a.stats = e
	}
}

// clientSlot hashes a session client id onto the fair-share table.
func clientSlot(cid uint32) uint32 {
	x := cid * 0x9e3779b9 // Fibonacci hashing: mixes sequential ids
	return (x >> 24) & (admissionClients - 1)
}

// Admit decides one call before decode. A nil return admits — the
// caller must pair it with Release(cid) when the call completes. A
// non-nil return is the complete pushback reply frame (shared and
// immutable; transports copy it onto the wire like any cached reply).
// idem reports the request frame's [idempotent] flag bit: shed level
// 1 spares idempotent traffic, which retries cheaply.
func (a *Admission) Admit(cid uint32, idem bool) []byte {
	if a == nil {
		return nil
	}
	if a.draining.Load() {
		a.stats.Add(stats.DrainRejects, 1)
		return a.drainFrame
	}
	if a.shedP99 > 0 {
		lvl := a.shedLevel()
		if lvl >= shedLevelMax || (lvl >= 1 && !idem) {
			a.stats.Add(stats.Sheds, 1)
			return a.overFrame
		}
	}
	n := a.inflight.Add(1)
	if a.maxInflight > 0 && n > a.maxInflight {
		a.inflight.Add(-1)
		a.stats.Add(stats.Sheds, 1)
		return a.overFrame
	}
	if a.perClient > 0 {
		slot := &a.clients[clientSlot(cid)]
		if slot.Add(1) > a.perClient {
			slot.Add(-1)
			a.inflight.Add(-1)
			a.stats.Add(stats.Sheds, 1)
			return a.overFrame
		}
	}
	return nil
}

// Release returns one admitted call's capacity; cid must match the
// Admit that admitted it.
func (a *Admission) Release(cid uint32) {
	if a == nil {
		return
	}
	a.inflight.Add(-1)
	if a.perClient > 0 {
		a.clients[clientSlot(cid)].Add(-1)
	}
}

// Inflight reports currently admitted calls.
func (a *Admission) Inflight() int64 {
	if a == nil {
		return 0
	}
	return a.inflight.Load()
}

// StartDrain flips the controller into draining: every subsequent
// Admit answers with the draining pushback frame. Irreversible.
func (a *Admission) StartDrain() {
	if a != nil {
		a.draining.Store(true)
	}
}

// shedLevel returns the current level, first recomputing it when the
// interval has elapsed. The CAS elects exactly one caller per
// interval to do the recompute; everyone else reads the level word.
func (a *Admission) shedLevel() int32 {
	now := a.clock.Now().UnixNano()
	next := a.nextAt.Load()
	if now >= next && a.nextAt.CompareAndSwap(next, now+int64(a.interval)) {
		a.recompute()
	}
	return a.level.Load()
}

// recompute reads the latency histograms, diffs them against the
// previous check's totals, and moves the shed level by at most one
// with hysteresis. Everything here is value-state owned by the
// controller: no allocation, so the elected admission caller pays
// only a bounded, rare cost.
func (a *Admission) recompute() {
	a.smu.Lock()
	defer a.smu.Unlock()
	a.cur = stats.HistogramSnapshot{}
	a.stats.MergedLatency(&a.cur)
	a.delta = a.cur
	a.delta.Count -= a.prev.Count
	a.delta.SumNs -= a.prev.SumNs
	for i := range a.delta.Buckets {
		a.delta.Buckets[i] -= a.prev.Buckets[i]
	}
	a.prev = a.cur
	lvl := a.level.Load()
	if a.delta.Count == 0 {
		// No completed traffic since the last check: decay toward
		// admitting (a fully shedding server would otherwise never
		// observe the recovery it is preventing).
		if lvl > 0 {
			a.level.Store(lvl - 1)
		}
		return
	}
	p99 := a.delta.Quantile(0.99)
	switch {
	case p99 > a.shedP99 && lvl < shedLevelMax:
		a.level.Store(lvl + 1)
	case p99 < a.exitP99 && lvl > 0:
		a.level.Store(lvl - 1)
	}
}
