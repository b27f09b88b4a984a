// Single-endpoint pass: annotation safety lints (FV004–FV006, FV014,
// FV016, FV021) and the presentation/interface consistency rules
// (FV007–FV012), which are pres.Walk's.
package analyze

import "flexrpc/internal/pres"

// ruleIDs files each of pres.Walk's consistency rules under its check.
var ruleIDs = [...]string{
	pres.RuleDangling:   "FV007",
	pres.RuleMutability: "FV008",
	pres.RuleLengthIs:   "FV009",
	pres.RuleInOnly:     "FV010",
	pres.RulePortOnly:   "FV011",
	pres.RuleBufferOnly: "FV012",
}

// checkEndpoint runs every single-endpoint check over one
// presentation, reporting all findings rather than stopping at the
// first the way pres.Validate does. A presentation is checked against
// the contract it is attached to; the reference interface only anchors
// the cross-endpoint comparison.
func (c *checker) checkEndpoint(ep Endpoint) {
	c.checkTrust(ep)
	for _, v := range ep.Pres.Walk(func(s pres.Site) { c.checkSite(ep.Pres, s) }) {
		c.report(ruleIDs[v.Rule], v.Pos, "%s", v.Msg)
	}
}

// checkSite runs the safety lints of one annotated parameter.
func (c *checker) checkSite(p *pres.Presentation, s pres.Site) {
	a := s.Attrs
	if a.Trashable && a.Special {
		c.report("FV004", a.AttrPos(pres.AttrSpecial, pres.AttrTrashable),
			"%s: [special] marshal hook may alias a buffer the stub is allowed to trash", s.Ctx())
	}
	if s.Op.Batchable && a.Special {
		c.report("FV016", a.AttrPos(pres.AttrSpecial),
			"%s: [batchable] operation's [special] hook runs at enqueue time, not transmission time; the batcher's frame copy makes the deferral observable", s.Ctx())
	}
	if !pres.IsBuffer(s.Type) {
		return
	}
	if a.Dealloc == pres.DeallocNever && a.Alloc == pres.AllocCallee && a.Explicit(pres.AttrAlloc) && !s.In() {
		c.report("FV006", a.AttrPos(pres.AttrDealloc, pres.AttrAlloc),
			"%s: [alloc(callee), dealloc(never)]: a fresh callee-allocated buffer per call that nothing frees", s.Ctx())
	}
	// The three checks below are one scan — does the signature move
	// buffer ownership explicitly? — under three conditions that each
	// make a move unsafe or meaningless.
	if s.Op.Idempotent {
		// FV014: the runtime retries the operation without consulting
		// the reply cache, so a retransmitted execution must be
		// invisible — ownership moves are not.
		c.checkOwnership("FV014", s,
			"[idempotent] operation transfers the caller's buffer ([dealloc(always)]); a retry's re-marshal would double-free it",
			"[idempotent] operation hands out a callee-allocated buffer ([alloc(callee)]); a retried execution allocates again with only one delivery")
	}
	if s.Op.Batchable {
		// FV016: the batcher copies the marshaled request into a queue
		// and transmits it later inside a merged frame, dissolving the
		// per-call boundary a move is tied to.
		c.checkOwnership("FV016", s,
			"[batchable] operation transfers the caller's buffer ([dealloc(always)]), but the batcher queues a copy past the call boundary that lifetime is tied to",
			"[batchable] operation hands out a callee-allocated buffer ([alloc(callee)]) whose delivery the batcher detaches from the call that allocated it")
	}
	if p.Trust == pres.TrustFull {
		// FV021's single-endpoint leg: the trusted same-domain binding
		// (shmring's arena fast path) elides the per-call ownership
		// protocol — payloads alias leased slots and never transfer —
		// so the annotation is dead weight at best and a false promise
		// at worst.
		_, name := trustGrant(p)
		grant := "[" + name + "] binding elides the per-call ownership protocol; "
		c.checkOwnership("FV021", s,
			grant+"[dealloc(always)] is unenforced on the trusted fast path",
			grant+"[alloc(callee)] is unenforced on the trusted fast path")
	}
}

// checkOwnership reports, under id, an explicit [dealloc(always)] on a
// buffer going in and an explicit [alloc(callee)] on one coming out.
func (c *checker) checkOwnership(id string, s pres.Site, deallocMsg, allocMsg string) {
	a := s.Attrs
	if s.In() && a.Dealloc == pres.DeallocAlways && a.Explicit(pres.AttrDealloc) {
		c.report(id, a.AttrPos(pres.AttrDealloc), "%s: %s", s.Ctx(), deallocMsg)
	}
	if s.Out() && a.Alloc == pres.AllocCallee && a.Explicit(pres.AttrAlloc) {
		c.report(id, a.AttrPos(pres.AttrAlloc), "%s: %s", s.Ctx(), allocMsg)
	}
}

// trustGrant names the attribute that granted full trust, for
// diagnostics: [trusted] and [unprotected] are aliases.
func trustGrant(p *pres.Presentation) (pres.IfaceAttr, string) {
	if _, ok := p.PosOf(pres.AttrTrusted); ok {
		return pres.AttrTrusted, "trusted"
	}
	return pres.AttrUnprotected, "unprotected"
}

// checkTrust is FV005: trust granted to a peer outside every
// protection domain.
func (c *checker) checkTrust(ep Endpoint) {
	p := ep.Pres
	if p.Trust == pres.TrustNone || !IsNetworkTransport(ep.Transport) {
		return
	}
	attr, name, sev := pres.AttrLeaky, "leaky", SevWarning
	if p.Trust == pres.TrustFull {
		attr, name, sev = pres.AttrUnprotected, "unprotected", SevError
	}
	pos, _ := p.PosOf(attr)
	c.reportSev("FV005", sev, pos,
		"%s: [%s] trust granted on network transport %s; the peer is outside every protection domain",
		p.Interface.Name, name, ep.Transport)
}
