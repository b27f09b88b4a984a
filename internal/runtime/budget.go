package runtime

import "sync/atomic"

// Client-side overload protection: a RetryBudget keeps a RobustConn's
// retry loop from amplifying a server's bad day into a retry storm. It
// is a token bucket that bounds what fraction of traffic may be
// retries: every first attempt deposits a fractional token, every
// retry withdraws a whole one, and a retry the bucket cannot pay for
// is suppressed — the call fails fast with its last error instead of
// joining the storm. Healthy traffic keeps the bucket full, so
// occasional faults retry freely; when most calls are failing,
// deposits cannot keep up and the retry rate collapses to the deposit
// ratio. A budget is deliberately shareable: one may guard many
// RobustConns to one backend, which is where the aggregate protection
// matters.

// budgetScale is the fixed-point scale for fractional token
// arithmetic (tokens are int64 multiples of 1/budgetScale).
const budgetScale = 1024

// A RetryBudget throttles retries across every conn that shares it.
// All methods are safe on a nil *RetryBudget (the disabled state:
// retries are limited only by the policy).
type RetryBudget struct {
	capacity   int64 // scaled
	deposit    int64 // scaled, credited per first attempt
	tokens     atomic.Int64
	suppressed atomic.Uint64
}

// NewRetryBudget returns a budget holding at most capacity retry
// tokens, crediting ratio tokens per first attempt. capacity <= 0
// means 10; ratio <= 0 means 0.1 (one retry per ten calls, the
// conventional throttle). The bucket starts full, so a fresh client
// retries its first faults freely.
func NewRetryBudget(capacity, ratio float64) *RetryBudget {
	if capacity <= 0 {
		capacity = 10
	}
	if ratio <= 0 {
		ratio = 0.1
	}
	b := &RetryBudget{
		capacity: int64(capacity * budgetScale),
		deposit:  int64(ratio * budgetScale),
	}
	if b.deposit < 1 {
		b.deposit = 1
	}
	b.tokens.Store(b.capacity)
	return b
}

// onAttempt credits the budget for one first attempt.
func (b *RetryBudget) onAttempt() {
	if b == nil {
		return
	}
	for {
		cur := b.tokens.Load()
		next := cur + b.deposit
		if next > b.capacity {
			next = b.capacity
		}
		if next == cur || b.tokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

// allowRetry withdraws one retry token, reporting false (and counting
// a suppression) when the bucket cannot pay.
func (b *RetryBudget) allowRetry() bool {
	if b == nil {
		return true
	}
	for {
		cur := b.tokens.Load()
		if cur < budgetScale {
			b.suppressed.Add(1)
			return false
		}
		if b.tokens.CompareAndSwap(cur, cur-budgetScale) {
			return true
		}
	}
}
