// Package pdl implements the Presentation Definition Language: the
// third compiler stage in which the presentation of an RPC interface
// is modified declaratively (paper §3). The syntax follows DCE's ACF
// format, which the paper cites as its model: attribute lists in
// brackets attach to interfaces, operations, and parameters, and only
// deviations from the default presentation need be declared.
//
//	[leaky, unprotected]
//	interface FileIO {
//	    [comm_status] read([dealloc(never)] return);
//	    write([trashable] data);
//	};
//
// Nothing declared in a PDL file can affect the contract between
// client and server: Apply validates the presentation against the
// interface after annotating it.
package pdl

import (
	"flexrpc/internal/idl"
	"flexrpc/internal/pres"
)

// An attr is one parsed [name] or [name(arg,...)] attribute.
type attr struct {
	name string
	args []string
	pos  idl.Pos
}

// Apply parses PDL source and applies it to p in place, then
// validates the result. A caller that keeps p's prior state (one base
// presentation for several endpoints) applies to p.Clone(). On error p
// may be partly annotated and is to be discarded.
func Apply(p *pres.Presentation, filename, src string) error {
	return apply(p, filename, src, true)
}

// ApplyLoose is Apply for lint passes: declarations naming operations
// that do not exist in the interface are applied anyway (creating
// presentation entries a static analyzer can flag with their source
// positions) and the result is not validated. Parse errors and
// unknown attribute names still fail.
func ApplyLoose(p *pres.Presentation, filename, src string) error {
	return apply(p, filename, src, false)
}

func apply(out *pres.Presentation, filename, src string, strict bool) error {
	p := &parser{Parser: idl.NewParser(filename, src)}
	decls, err := p.parseFile()
	if err != nil {
		return err
	}
	for _, d := range decls {
		if err := d.apply(out, strict); err != nil {
			return err
		}
	}
	if strict {
		return out.Validate()
	}
	return nil
}

type paramDecl struct {
	name  string
	attrs []attr
	pos   idl.Pos
}

type opDecl struct {
	name   string
	attrs  []attr
	params []paramDecl
	pos    idl.Pos
}

type ifaceDecl struct {
	name  string
	attrs []attr
	ops   []opDecl
	pos   idl.Pos
}

type parser struct {
	idl.Parser
}

func (p *parser) parseFile() ([]ifaceDecl, error) {
	var decls []ifaceDecl
	for {
		eof, err := p.AtEOF()
		if err != nil {
			return nil, err
		}
		if eof {
			return decls, nil
		}
		d, err := p.parseInterface()
		if err != nil {
			return nil, err
		}
		decls = append(decls, d)
	}
}

// parseAttrs parses an optional bracketed attribute list.
func (p *parser) parseAttrs() ([]attr, error) {
	ok, err := p.Accept("[")
	if err != nil || !ok {
		return nil, err
	}
	var attrs []attr
	for {
		name, pos, err := p.ExpectIdent()
		if err != nil {
			return nil, err
		}
		a := attr{name: name, pos: pos}
		if ok, err := p.Accept("("); err != nil {
			return nil, err
		} else if ok {
			for {
				arg, _, err := p.ExpectIdent()
				if err != nil {
					return nil, err
				}
				a.args = append(a.args, arg)
				more, err := p.Accept(",")
				if err != nil {
					return nil, err
				}
				if !more {
					break
				}
			}
			if err := p.Expect(")"); err != nil {
				return nil, err
			}
		}
		attrs = append(attrs, a)
		more, err := p.Accept(",")
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
	}
	return attrs, p.Expect("]")
}

func (p *parser) parseInterface() (d ifaceDecl, err error) {
	if d.attrs, err = p.parseAttrs(); err != nil {
		return d, err
	}
	if err := p.ExpectKeyword("interface"); err != nil {
		return d, err
	}
	if d.name, d.pos, err = p.ExpectIdent(); err != nil {
		return d, err
	}
	if err := p.Expect("{"); err != nil {
		return d, err
	}
	for {
		done, err := p.Accept("}")
		if err != nil {
			return d, err
		}
		if done {
			break
		}
		op, err := p.parseOp()
		if err != nil {
			return d, err
		}
		d.ops = append(d.ops, op)
	}
	_, err = p.Accept(";")
	return d, err
}

func (p *parser) parseOp() (d opDecl, err error) {
	if d.attrs, err = p.parseAttrs(); err != nil {
		return d, err
	}
	if d.name, d.pos, err = p.ExpectIdent(); err != nil {
		return d, err
	}
	if err := p.Expect("("); err != nil {
		return d, err
	}
	for {
		done, err := p.Accept(")")
		if err != nil {
			return d, err
		}
		if done {
			break
		}
		if len(d.params) > 0 {
			if err := p.Expect(","); err != nil {
				return d, err
			}
		}
		pattrs, err := p.parseAttrs()
		if err != nil {
			return d, err
		}
		pname, ppos, err := p.ExpectIdent()
		if err != nil {
			return d, err
		}
		d.params = append(d.params, paramDecl{name: pname, attrs: pattrs, pos: ppos})
	}
	return d, p.Expect(";")
}

func (d *ifaceDecl) apply(out *pres.Presentation, strict bool) error {
	if d.name != out.Interface.Name {
		return idl.Errorf(d.pos, "pdl: interface %q does not match presentation interface %q",
			d.name, out.Interface.Name)
	}
	for _, a := range d.attrs {
		switch a.name {
		case "leaky":
			if out.Trust < pres.TrustLeaky {
				out.Trust = pres.TrustLeaky
			}
		case "unprotected", "trusted":
			// [trusted] is the shared-memory binding's spelling of the
			// same grant: the peer shares a protection domain, so
			// validation and the per-call ownership protocol may be
			// elided (shmring's arena fast path).
			out.Trust = pres.TrustFull
		case "corba_style":
			out.Style = pres.StyleCORBA
		case "mig_style":
			out.Style = pres.StyleMIG
		default:
			return idl.Errorf(a.pos, "pdl: unknown interface attribute %q", a.name)
		}
		out.MarkAt(a.name, a.pos)
	}
	for _, op := range d.ops {
		if err := op.apply(out, strict); err != nil {
			return err
		}
	}
	return nil
}

func (d *opDecl) apply(out *pres.Presentation, strict bool) error {
	op := out.Op(d.name)
	if op == nil {
		if strict {
			return idl.Errorf(d.pos, "pdl: operation %q not in interface %q", d.name, out.Interface.Name)
		}
		// Loose mode: keep the dangling declaration so the analyzer
		// can report it with its position.
		op = &pres.OpPres{Name: d.name, Params: make(map[string]*pres.ParamAttrs)}
		out.Ops[d.name] = op
	}
	if op.Pos.Line == 0 {
		op.Pos = d.pos
	}
	for _, a := range d.attrs {
		switch a.name {
		case "comm_status":
			op.CommStatus = true
		case "idempotent":
			op.Idempotent = true
		case "batchable":
			op.Batchable = true
		default:
			return idl.Errorf(a.pos, "pdl: unknown operation attribute %q (accepted: comm_status, idempotent, batchable)", a.name)
		}
		op.MarkAt(a.name, a.pos)
	}
	for _, pd := range d.params {
		pa := op.Param(pd.name)
		if pa.Pos.Line == 0 {
			pa.Pos = pd.pos
		}
		for _, a := range pd.attrs {
			if err := applyParamAttr(pa, a); err != nil {
				return err
			}
		}
	}
	return nil
}

func applyParamAttr(pa *pres.ParamAttrs, a attr) error {
	oneArg := func() (string, error) {
		if len(a.args) != 1 {
			return "", idl.Errorf(a.pos, "pdl: %s expects exactly one argument", a.name)
		}
		return a.args[0], nil
	}
	noArgs := func() error {
		if len(a.args) != 0 {
			return idl.Errorf(a.pos, "pdl: %s takes no arguments", a.name)
		}
		return nil
	}
	switch a.name {
	case "special":
		if err := noArgs(); err != nil {
			return err
		}
		pa.Special = true
	case "trashable":
		if err := noArgs(); err != nil {
			return err
		}
		pa.Trashable = true
	case "preserved":
		if err := noArgs(); err != nil {
			return err
		}
		pa.Preserved = true
	case "nonunique":
		if err := noArgs(); err != nil {
			return err
		}
		pa.NonUnique = true
	case "traced":
		if err := noArgs(); err != nil {
			return err
		}
		pa.Traced = true
	case "length_is":
		arg, err := oneArg()
		if err != nil {
			return err
		}
		pa.LengthIs = arg
	case "dealloc":
		arg, err := oneArg()
		if err != nil {
			return err
		}
		switch arg {
		case "never":
			pa.Dealloc = pres.DeallocNever
		case "always":
			pa.Dealloc = pres.DeallocAlways
		default:
			return idl.Errorf(a.pos, "pdl: dealloc(%s): want never or always", arg)
		}
	case "alloc":
		arg, err := oneArg()
		if err != nil {
			return err
		}
		switch arg {
		case "caller":
			pa.Alloc = pres.AllocCaller
		case "callee":
			pa.Alloc = pres.AllocCallee
		case "auto":
			pa.Alloc = pres.AllocAuto
		default:
			return idl.Errorf(a.pos, "pdl: alloc(%s): want caller, callee or auto", arg)
		}
	default:
		return idl.Errorf(a.pos, "pdl: unknown parameter attribute %q", a.name)
	}
	pa.MarkAt(a.name, a.pos)
	return nil
}
