package runtime

import "fmt"

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

// OpCert and VerifyAllocBound read a certificate the way the
// certificate tests check it against the AllocsPerRun gates.

// OpCert returns the named operation's certificate, or nil.
func (c *PlanCert) OpCert(name string) *OpCert {
	for i := range c.Ops {
		if c.Ops[i].Op == name {
			return &c.Ops[i]
		}
	}
	return nil
}

// VerifyAllocBound proves the named operation's certified per-call
// allocation bound on the named side is at most max.
func (c *PlanCert) VerifyAllocBound(side, name string, max int) error {
	oc := c.OpCert(name)
	if oc == nil {
		return fmt.Errorf("certify: no operation %q in plan for %s", name, c.Interface)
	}
	bound := oc.ClientAllocBound
	if side == "server" {
		bound = oc.ServerAllocBound
	}
	if bound <= max {
		return nil
	}
	for _, sc := range oc.Steps {
		if sc.Allocs && sideOf(sc.Phase) == side {
			return fmt.Errorf("certify: %s.%s certifies %d %s-side allocations per call, want <= %d: %s step on %q (%s, lands %s) allocates",
				c.Interface, name, bound, side, max, sc.Phase, sc.Param, sc.Type, sc.Landing)
		}
	}
	return fmt.Errorf("certify: %s.%s certifies %d %s-side allocations per call, want <= %d",
		c.Interface, name, bound, side, max)
}
