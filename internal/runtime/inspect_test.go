package runtime

// Inspectors the tests read overload-control and reply-cache state
// through; no non-test code asks these questions (a gauge surface,
// ROADMAP item 4b, would).

// Draining reports whether StartDrain has run.
func (a *Admission) Draining() bool { return a != nil && a.draining.Load() }

// ShedLevel reports the shedder's current level: 0 admits everything,
// 1 sheds non-idempotent traffic, 2 sheds all.
func (a *Admission) ShedLevel() int { return int(a.level.Load()) }

// Suppressed reports how many retries the budget refused.
func (b *RetryBudget) Suppressed() uint64 { return b.suppressed.Load() }

// Tokens reports the current balance in whole retries.
func (b *RetryBudget) Tokens() float64 { return float64(b.tokens.Load()) / budgetScale }

// State reports the breaker state as "closed", "open" or "half-open".
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Opens reports how many times the breaker has tripped open.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// Shards reports the shard count (always a power of two).
func (c *ReplyCache) Shards() int { return len(c.shards) }

// Len reports how many completed replies the cache currently holds,
// summed across shards.
func (c *ReplyCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		c.lock(s)
		n += len(s.ring)
		s.mu.Unlock()
	}
	return n
}
