package runtime

import (
	"sync/atomic"
	"time"

	"flexrpc/internal/stats"
)

// Admission control: the server-side half of the overload story. An
// Admission controller sits in front of the session layer and decides
// each call before anything about it is decoded, so a server drowning
// in requests spends almost nothing per rejected call. The decision
// path is a few atomics and two preallocated pushback frames:
// admitting or rejecting a call allocates zero bytes.
//
// Two gates, in the order they run:
//
//  1. Drain: a draining server rejects everything with a
//     sessDraining pushback.
//  2. Cap: a global max-inflight bound; a call over it gets a
//     sessOverloaded pushback.

// AdmissionOptions configure an Admission controller.
type AdmissionOptions struct {
	// MaxInflight bounds concurrently admitted calls; 0 means
	// unlimited.
	MaxInflight int
	// RetryAfter is the advisory retry-after carried in pushback
	// frames; 0 means DefaultRetryAfter.
	RetryAfter time.Duration
	// Stats receives the shed and drain-reject counters; nil records
	// nothing.
	Stats *stats.Endpoint
}

// DefaultRetryAfter is the advisory retry-after in pushback frames
// when AdmissionOptions does not set one.
const DefaultRetryAfter = 5 * time.Millisecond

// An Admission is the admission controller. All methods are safe on a
// nil *Admission (the disabled state: everything admits).
type Admission struct {
	maxInflight int64
	inflight    atomic.Int64
	draining    atomic.Bool

	// Preallocated pushback frames: rejection writes nothing, it just
	// returns one of these shared immutable slices.
	overFrame  []byte
	drainFrame []byte

	stats *stats.Endpoint
}

// NewAdmission builds a controller from o.
func NewAdmission(o AdmissionOptions) *Admission {
	if o.RetryAfter <= 0 {
		o.RetryAfter = DefaultRetryAfter
	}
	return &Admission{
		maxInflight: int64(o.MaxInflight),
		overFrame:   AppendPushbackFrame(nil, false, o.RetryAfter),
		drainFrame:  AppendPushbackFrame(nil, true, o.RetryAfter),
		stats:       o.Stats,
	}
}

// SetStats points the controller's shed/drain counters at e, replacing
// AdmissionOptions.Stats. Set before admitting; a nil endpoint records
// nothing.
func (a *Admission) SetStats(e *stats.Endpoint) {
	if a != nil {
		a.stats = e
	}
}

// Admit decides one call before decode. A nil return admits — the
// caller must pair it with Release when the call completes. A non-nil
// return is the complete pushback reply frame (shared and immutable;
// transports copy it onto the wire like any cached reply).
func (a *Admission) Admit() []byte {
	if a == nil {
		return nil
	}
	if a.draining.Load() {
		a.stats.Add(stats.DrainRejects, 1)
		return a.drainFrame
	}
	n := a.inflight.Add(1)
	if a.maxInflight > 0 && n > a.maxInflight {
		a.inflight.Add(-1)
		a.stats.Add(stats.Sheds, 1)
		return a.overFrame
	}
	return nil
}

// Release returns one admitted call's capacity.
func (a *Admission) Release() {
	if a != nil {
		a.inflight.Add(-1)
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
