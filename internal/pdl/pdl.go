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

// An attr is one parsed [name] or [name(arg,...)] attribute. Every
// attribute takes at most one argument, so only the first is kept.
type attr struct {
	name  string
	arg   string // the first argument
	nargs int
	pos   idl.Pos
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

// apply annotates out clause by clause as it parses. A syntax error
// anywhere in the file is the error; else the first annotation that
// failed to apply, after which nothing more is applied.
func apply(out *pres.Presentation, filename, src string, strict bool) error {
	p := &parser{Parser: idl.NewParser(filename, src), out: out, strict: strict}
	if err := p.parseFile(); err != nil {
		return err
	}
	if p.err != nil {
		return p.err
	}
	if strict {
		return out.Validate()
	}
	return nil
}

type parser struct {
	idl.Parser
	out    *pres.Presentation
	strict bool
	err    error  // the first annotation that failed to apply
	attrs  []attr // the attribute list just parsed; every list reuses it
}

func (p *parser) parseFile() error {
	for {
		eof, err := p.AtEOF()
		if err != nil {
			return err
		}
		if eof {
			return nil
		}
		if err := p.parseInterface(); err != nil {
			return err
		}
	}
}

// parseAttrs parses an optional bracketed attribute list into p.attrs.
func (p *parser) parseAttrs() error {
	p.attrs = p.attrs[:0]
	ok, err := p.Accept("[")
	if err != nil || !ok {
		return err
	}
	for {
		name, at, err := p.ExpectIdent()
		if err != nil {
			return err
		}
		a := attr{name: name, pos: p.Pos(at)}
		if ok, err := p.Accept("("); err != nil {
			return err
		} else if ok {
			for {
				arg, _, err := p.ExpectIdent()
				if err != nil {
					return err
				}
				if a.nargs++; a.nargs == 1 {
					a.arg = arg
				}
				more, err := p.Accept(",")
				if err != nil {
					return err
				}
				if !more {
					break
				}
			}
			if err := p.Expect(")"); err != nil {
				return err
			}
		}
		p.attrs = append(p.attrs, a)
		more, err := p.Accept(",")
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	return p.Expect("]")
}

func (p *parser) parseInterface() error {
	if err := p.parseAttrs(); err != nil {
		return err
	}
	if err := p.ExpectKeyword("interface"); err != nil {
		return err
	}
	name, at, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if p.err == nil {
		p.err = p.applyInterface(name, at)
	}
	if err := p.Expect("{"); err != nil {
		return err
	}
	for {
		done, err := p.Accept("}")
		if err != nil {
			return err
		}
		if done {
			break
		}
		if err := p.parseOp(); err != nil {
			return err
		}
	}
	_, err = p.Accept(";")
	return err
}

func (p *parser) parseOp() error {
	if err := p.parseAttrs(); err != nil {
		return err
	}
	name, at, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	var op *pres.OpPres
	if p.err == nil {
		op, p.err = p.applyOp(name, at)
	}
	if err := p.Expect("("); err != nil {
		return err
	}
	for first := true; ; first = false {
		done, err := p.Accept(")")
		if err != nil {
			return err
		}
		if done {
			break
		}
		if !first {
			if err := p.Expect(","); err != nil {
				return err
			}
		}
		if err := p.parseAttrs(); err != nil {
			return err
		}
		pname, pat, err := p.ExpectIdent()
		if err != nil {
			return err
		}
		if p.err == nil {
			p.err = p.applyParam(op, pname, pat)
		}
	}
	return p.Expect(";")
}

// applyInterface applies the attribute list just parsed to the
// interface declared as name.
func (p *parser) applyInterface(name string, at idl.Token) error {
	out := p.out
	if name != out.Interface.Name {
		return p.ErrorfAt(at, "pdl: interface %q does not match presentation interface %q",
			name, out.Interface.Name)
	}
	for _, a := range p.attrs {
		var attr pres.IfaceAttr
		switch a.name {
		case "leaky":
			attr = pres.AttrLeaky
			if out.Trust < pres.TrustLeaky {
				out.Trust = pres.TrustLeaky
			}
		case "unprotected", "trusted":
			// [trusted] is the shared-memory binding's spelling of the
			// same grant: the peer shares a protection domain, so
			// validation and the per-call ownership protocol may be
			// elided (shmring's arena fast path).
			attr = pres.AttrUnprotected
			if a.name == "trusted" {
				attr = pres.AttrTrusted
			}
			out.Trust = pres.TrustFull
		case "corba_style":
			attr = pres.AttrCORBAStyle
			out.Style = pres.StyleCORBA
		case "mig_style":
			attr = pres.AttrMIGStyle
			out.Style = pres.StyleMIG
		default:
			return idl.Errorf(a.pos, "pdl: unknown interface attribute %q", a.name)
		}
		out.MarkAt(attr, a.pos)
	}
	return nil
}

// applyOp applies the attribute list just parsed to the operation
// declared as name, returning its presentation.
func (p *parser) applyOp(name string, at idl.Token) (*pres.OpPres, error) {
	op := p.out.Op(name)
	if op == nil {
		if p.strict {
			return nil, p.ErrorfAt(at, "pdl: operation %q not in interface %q", name, p.out.Interface.Name)
		}
		// Loose mode: keep the dangling declaration so the analyzer
		// can report it with its position.
		op = p.out.Annotate(name)
	}
	if op.Pos.Line == 0 {
		op.Pos = p.Pos(at)
	}
	for _, a := range p.attrs {
		var attr pres.OpAttr
		switch a.name {
		case "comm_status":
			attr, op.CommStatus = pres.AttrCommStatus, true
		case "idempotent":
			attr, op.Idempotent = pres.AttrIdempotent, true
		case "batchable":
			attr, op.Batchable = pres.AttrBatchable, true
		default:
			return nil, idl.Errorf(a.pos, "pdl: unknown operation attribute %q (accepted: comm_status, idempotent, batchable)", a.name)
		}
		op.MarkAt(attr, a.pos)
	}
	return op, nil
}

// applyParam applies the attribute list just parsed to op's parameter
// declared as name.
func (p *parser) applyParam(op *pres.OpPres, name string, at idl.Token) error {
	pa := op.Annotate(name)
	if pa.Pos.Line == 0 {
		pa.Pos = p.Pos(at)
	}
	for _, a := range p.attrs {
		if err := applyParamAttr(pa, a); err != nil {
			return err
		}
	}
	return nil
}

func applyParamAttr(pa *pres.ParamAttrs, a attr) error {
	oneArg := func() (string, error) {
		if a.nargs != 1 {
			return "", idl.Errorf(a.pos, "pdl: %s expects exactly one argument", a.name)
		}
		return a.arg, nil
	}
	var attr pres.ParamAttr
	// flag applies an attribute that takes no arguments.
	flag := func(f *bool, at pres.ParamAttr) error {
		if a.nargs != 0 {
			return idl.Errorf(a.pos, "pdl: %s takes no arguments", a.name)
		}
		*f, attr = true, at
		return nil
	}
	switch a.name {
	case "special":
		if err := flag(&pa.Special, pres.AttrSpecial); err != nil {
			return err
		}
	case "trashable":
		if err := flag(&pa.Trashable, pres.AttrTrashable); err != nil {
			return err
		}
	case "preserved":
		if err := flag(&pa.Preserved, pres.AttrPreserved); err != nil {
			return err
		}
	case "nonunique":
		if err := flag(&pa.NonUnique, pres.AttrNonUnique); err != nil {
			return err
		}
	case "traced":
		if err := flag(&pa.Traced, pres.AttrTraced); err != nil {
			return err
		}
	case "length_is":
		arg, err := oneArg()
		if err != nil {
			return err
		}
		attr, pa.LengthIs = pres.AttrLengthIs, arg
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
		attr = pres.AttrDealloc
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
		attr = pres.AttrAlloc
	default:
		return idl.Errorf(a.pos, "pdl: unknown parameter attribute %q", a.name)
	}
	pa.MarkAt(attr, a.pos)
	return nil
}
