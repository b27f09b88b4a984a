package runtime

// Inspectors the tests read overload-control and reply-cache state
// through; no non-test code asks these questions (a gauge surface,
// ROADMAP item 4b, would).

// Draining reports whether StartDrain has run.
func (a *Admission) Draining() bool { return a != nil && a.draining.Load() }

// Suppressed reports how many retries the budget refused.
func (b *RetryBudget) Suppressed() uint64 { return b.suppressed.Load() }

// Tokens reports the current balance in whole retries.
func (b *RetryBudget) Tokens() float64 { return float64(b.tokens.Load()) / budgetScale }

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
