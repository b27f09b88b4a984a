// Cross-endpoint pass: prove two independently-annotated endpoints of
// one interface still share the wire contract (FV001) and report
// annotation pairs that are individually legal but jointly unsafe
// (FV002, FV003). Presentations are *supposed* to differ — that is
// the paper's whole point — so only contract identity and unsafe
// pairings are findings, never mere asymmetry.
package analyze

import (
	"flexrpc/internal/idl"
	"flexrpc/internal/ir"
	"flexrpc/internal/pres"
)

// checkPair runs the cross-endpoint checks over one pair of
// endpoints, paired as a binding pairs them (pres.Combine): operations
// by name, parameters by position.
func (c *checker) checkPair(a, b Endpoint) {
	// Trust asymmetry is interface-level and meaningful even when the
	// contracts have drifted, so it runs before the FV001 gate.
	c.checkTrustAsymmetry(a, b)
	c.checkTrustAsymmetry(b, a)
	comb, err := pres.Combine(a.Pres, b.Pres)
	if err != nil {
		// The endpoints do not agree on the contract; annotation-pair
		// comparison over mismatched operations would be noise.
		c.reportDrift(a, b)
		return
	}
	for _, op := range comb.Ops {
		for i := range op.Params {
			prm := &op.Params[i]
			ctx := a.Pres.Interface.Name + "." + op.Op.Name + "." + op.Op.Params[i].Name
			if prm.IsIn {
				c.checkTransfer(ctx, prm.Type, a, prm.Client, b, prm.Server)
				c.checkTransfer(ctx, prm.Type, b, prm.Server, a, prm.Client)
			}
			if prm.Type.Kind == ir.Port {
				c.checkNaming(ctx, a, prm.Client, b, prm.Server)
				c.checkNaming(ctx, b, prm.Server, a, prm.Client)
			}
		}
	}
}

// reportDrift is FV001: the wire contracts of a and b differ. It
// reports the drift per operation and in the interface identity.
func (c *checker) reportDrift(a, b Endpoint) {
	ia, ib := a.Pres.Interface, b.Pres.Interface
	sigsB := make(map[string]string, len(ib.Ops))
	for i := range ib.Ops {
		sigsB[ib.Ops[i].Name] = ib.Ops[i].Signature()
	}
	seen := make(map[string]bool, len(ia.Ops))
	for i := range ia.Ops {
		op := &ia.Ops[i]
		seen[op.Name] = true
		sb, ok := sigsB[op.Name]
		switch {
		case !ok:
			c.report("FV001", idl.Pos{},
				"contract drift between %s and %s: operation %q missing from %s",
				a.Label, b.Label, op.Name, b.Label)
		case sb != op.Signature():
			c.report("FV001", idl.Pos{},
				"contract drift between %s and %s: operation %q is %s on %s but %s on %s",
				a.Label, b.Label, op.Name, op.Signature(), a.Label, sb, b.Label)
		}
	}
	for i := range ib.Ops {
		if !seen[ib.Ops[i].Name] {
			c.report("FV001", idl.Pos{},
				"contract drift between %s and %s: operation %q missing from %s",
				a.Label, b.Label, ib.Ops[i].Name, a.Label)
		}
	}
	if ia.Name != ib.Name || (ia.Program != ib.Program || ia.Version != ib.Version) {
		c.report("FV001", idl.Pos{},
			"contract drift between %s and %s: interface identity %s vs %s",
			a.Label, b.Label, identity(ia), identity(ib))
	}
}

func identity(i *ir.Interface) string {
	if i.Program != 0 {
		return i.Name + "[prog=" + utoa(i.Program) + ",vers=" + utoa(i.Version) + "]"
	}
	return i.Name
}

func utoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var buf [10]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// checkTransfer is FV002: sender frees an in buffer after marshaling
// while the receiver promises to keep reading the original — under a
// same-domain or shared-buffer transport that original is gone.
func (c *checker) checkTransfer(ctx string, t *ir.Type, sender Endpoint, sAt *pres.ParamAttrs, receiver Endpoint, rAt *pres.ParamAttrs) {
	if !pres.IsBuffer(t) || sAt.Dealloc != pres.DeallocAlways || !rAt.Preserved {
		return
	}
	pos := sAt.AttrPos(pres.AttrDealloc)
	if pos.Line == 0 {
		pos = rAt.AttrPos(pres.AttrPreserved)
	}
	c.report("FV002", pos,
		"%s: %s frees the buffer after marshaling [dealloc(always)] but %s marks it [preserved]: use-after-transfer",
		ctx, sender.Label, receiver.Label)
}

// checkTrustAsymmetry is FV021's cross-endpoint leg: one endpoint
// grants full trust while the peer extends none. The bind-time
// combination signature takes the weaker of the two, so the trusted
// side keeps paying for the validated ownership path — every bounds
// check and name-table elision its grant was written to buy is
// silently discarded.
func (c *checker) checkTrustAsymmetry(trusted, peer Endpoint) {
	if trusted.Pres.Trust != pres.TrustFull || peer.Pres.Trust != pres.TrustNone {
		return
	}
	attr, grant := trustGrant(trusted.Pres)
	pos, _ := trusted.Pres.PosOf(attr)
	c.report("FV021", pos,
		"%s grants [%s] trust but peer %s presents untrusted: the combination signature keeps the validated path, discarding every elision the grant buys",
		trusted.Label, grant, peer.Label)
}

// checkNaming is FV003: one endpoint relaxes the unique-name
// invariant of a port right that the peer still relies on.
func (c *checker) checkNaming(ctx string, relaxed Endpoint, relAt *pres.ParamAttrs, strict Endpoint, strAt *pres.ParamAttrs) {
	if !relAt.NonUnique || strAt.NonUnique {
		return
	}
	c.report("FV003", relAt.AttrPos(pres.AttrNonUnique),
		"%s: %s marks the port [nonunique] but %s still relies on the unique-name invariant",
		ctx, relaxed.Label, strict.Label)
}
