// Package migdefs implements a Mach Interface Generator (.defs)
// front-end for the stub compiler. The paper had this front-end
// "under construction"; this completes it for the MIG subset the
// rest of the system exercises: subsystem declarations, type
// definitions with MIG array/struct specifiers, routines and
// simpleroutines with in/out/inout arguments.
//
// MIG conventions honored here:
//   - the first argument of every routine is the request port
//     identifying the server; it is the transport binding, not part
//     of the network contract, and is dropped from the operation.
//   - a routine's kern_return_t result maps to the Go error return
//     (the [comm_status] presentation, which MIG always used).
//   - simpleroutine means oneway.
//   - message ids are subsystem-base + declaration index, recorded
//     as the operation's procedure number.
package migdefs

import (
	"flexrpc/internal/idl"
	"flexrpc/internal/ir"
)

// Parse parses MIG .defs source into an ir.File with typedefs
// resolved. The subsystem becomes one ir.Interface.
func Parse(filename, src string) (*ir.File, error) {
	p := &parser{Decls: idl.Decls{Parser: idl.NewParser(filename, src), File: ir.NewFile(filename)}}
	if err := p.parseFile(); err != nil {
		return nil, err
	}
	return p.Resolve()
}

type parser struct {
	idl.Decls
	iface *ir.Interface
	base  int64 // subsystem message-id base
	index int64 // routine index (skip consumes one)
	depth int   // arrays open around the type being parsed
}

func (p *parser) parseFile() error {
	for {
		eof, err := p.AtEOF()
		if err != nil {
			return err
		}
		if eof {
			if p.iface == nil {
				return p.ErrorfAtNext("migdefs: the file declares no subsystem")
			}
			return nil
		}
		tok, err := p.Next()
		if err != nil {
			return err
		}
		if tok.Kind != idl.Ident {
			return p.ErrorfAt(tok, "expected declaration, found %s", p.Describe(tok))
		}
		switch p.Text(tok) {
		case "subsystem":
			err = p.parseSubsystem()
		case "type":
			err = p.parseType()
		case "routine":
			err = p.parseRoutine(false)
		case "simpleroutine":
			err = p.parseRoutine(true)
		case "skip":
			p.index++
			err = p.Expect(";")
		case "import", "uimport", "simport":
			// Import directives name C headers (<...> or "...");
			// irrelevant here — consume through the semicolon.
			for {
				t, nerr := p.Next()
				if nerr != nil {
					return nerr
				}
				if t.Kind == idl.EOF {
					return p.ErrorfAt(t, "unterminated import directive")
				}
				if t.Kind == idl.Punct && p.Text(t) == ";" {
					break
				}
			}
		default:
			return p.ErrorfAt(tok, "unknown declaration %q", p.Text(tok))
		}
		if err != nil {
			return err
		}
	}
}

func (p *parser) parseSubsystem() error {
	name, at, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if p.iface != nil {
		return p.ErrorfAt(at, "duplicate subsystem declaration")
	}
	base, err := p.ExpectInt()
	if err != nil {
		return err
	}
	p.iface = &ir.Interface{Name: name}
	p.base = base
	p.File.Interfaces = append(p.File.Interfaces, p.iface)
	return p.Expect(";")
}

// parseType handles "type name = spec;".
func (p *parser) parseType() error {
	name, at, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if err := p.Expect("="); err != nil {
		return err
	}
	t, err := p.parseTypeSpec()
	if err != nil {
		return err
	}
	if err := p.DefineType("type", name, at, t); err != nil {
		return err
	}
	return p.Expect(";")
}

// parseTypeSpec parses a MIG type specifier.
func (p *parser) parseTypeSpec() (*ir.Type, error) {
	tok, err := p.Next()
	if err != nil {
		return nil, err
	}
	if tok.Kind != idl.Ident {
		return nil, p.ErrorfAt(tok, "expected type, found %s", p.Describe(tok))
	}
	switch p.Text(tok) {
	case "int", "integer_t":
		return ir.Int32Type, nil
	case "unsigned", "natural_t":
		return ir.Uint32Type, nil
	case "char", "byte":
		return ir.OctetType, nil
	case "boolean_t":
		return ir.BoolType, nil
	case "float_t":
		return ir.Float32Type, nil
	case "double_t":
		return ir.Float64Type, nil
	case "string_t", "c_string":
		// c_string[N]: the bound is presentation detail.
		if ok, err := p.Accept("["); err != nil {
			return nil, err
		} else if ok {
			if _, err := p.Bound(); err != nil {
				return nil, err
			}
			if err := p.Expect("]"); err != nil {
				return nil, err
			}
		}
		return ir.StringType, nil
	case "mach_port_t", "mach_port_send_t":
		return ir.PortType, nil
	case "array":
		return p.parseArray(tok)
	case "struct":
		// struct[N] of T: a fixed inline array in MIG terms. An empty
		// one has no wire bytes, as a CORBA or XDR struct without members
		// would have, and is refused as they are.
		if err := p.Expect("["); err != nil {
			return nil, err
		}
		n, err := p.Bound()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, p.ErrorfAt(tok, "struct[0] has no members; it needs at least one")
		}
		if err := p.Expect("]"); err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("of"); err != nil {
			return nil, err
		}
		elem, err := p.parseElem(tok)
		if err != nil {
			return nil, err
		}
		return ir.ArrayOf(elem, n), nil
	case "polymorphic":
		return nil, p.ErrorfAt(tok, "polymorphic types are not supported")
	default:
		return &ir.Type{Kind: ir.Named, Name: p.Text(tok), Off: int(tok.Off)}, nil
	}
}

// parseElem parses the element type of the array specifier token at,
// one level deeper than the array.
func (p *parser) parseElem(at idl.Token) (*ir.Type, error) {
	if p.depth == ir.MaxTypeDepth {
		return nil, p.ErrorfAt(at, "type nests deeper than %d levels", ir.MaxTypeDepth)
	}
	p.depth++
	defer func() { p.depth-- }()
	return p.parseTypeSpec()
}

// parseArray handles MIG array specifiers:
//
//	array[N] of T        fixed-length
//	array[] of T         variable, unbounded
//	array[*:N] of T      variable, bounded by N
func (p *parser) parseArray(at idl.Token) (*ir.Type, error) {
	if err := p.Expect("["); err != nil {
		return nil, err
	}
	fixed := -1
	if star, err := p.Accept("*"); err != nil {
		return nil, err
	} else if star {
		if err := p.Expect(":"); err != nil {
			return nil, err
		}
		if _, err := p.Bound(); err != nil { // presentation detail
			return nil, err
		}
	} else if open, err := p.Peek(); err != nil {
		return nil, err
	} else if open.Kind != idl.Punct || p.Text(open) != "]" {
		if fixed, err = p.Bound(); err != nil {
			return nil, err
		}
	}
	if err := p.Expect("]"); err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("of"); err != nil {
		return nil, err
	}
	elem, err := p.parseElem(at)
	if err != nil {
		return nil, err
	}
	if fixed >= 0 {
		return ir.ArrayOf(elem, fixed), nil
	}
	return ir.SeqOf(elem), nil
}

// parseRoutine handles routine/simpleroutine declarations.
func (p *parser) parseRoutine(oneway bool) error {
	if p.iface == nil {
		return p.ErrorfAtNext("routine before subsystem declaration")
	}
	name, at, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if p.iface.Op(name) != nil {
		return p.ErrorfAt(at, "duplicate routine %q", name)
	}
	op := ir.Operation{
		Name:   name,
		Result: ir.VoidType,
		Oneway: oneway,
		Proc:   uint32(p.base + p.index),
	}
	p.index++
	if err := p.Expect("("); err != nil {
		return err
	}
	first := true
	for {
		done, err := p.Accept(")")
		if err != nil {
			return err
		}
		if done {
			break
		}
		if !first {
			if err := p.Expect(";"); err != nil {
				return err
			}
			// A trailing semicolon before ) is tolerated.
			if done, err := p.Accept(")"); err != nil {
				return err
			} else if done {
				break
			}
		}
		param, argAt, err := p.parseArg()
		if err != nil {
			return err
		}
		if first {
			// The request port: transport binding, not contract.
			if param.Type.Kind != ir.Port && param.Type.Kind != ir.Named {
				return p.ErrorfAt(at, "routine %q: first argument must be the request port", name)
			}
			first = false
			continue
		}
		first = false
		if op.ParamNameTaken(param.Name) {
			return p.ErrorfAt(argAt, "routine %q: argument name %q is taken", name, param.Name)
		}
		op.Params = append(op.Params, param)
	}
	if oneway {
		for _, prm := range op.Params {
			if prm.Dir != ir.In {
				return p.ErrorfAt(at, "simpleroutine %q cannot have out arguments", name)
			}
		}
	}
	if err := p.Expect(";"); err != nil {
		return err
	}
	p.iface.Ops = append(p.iface.Ops, op)
	return nil
}

// parseArg handles "dir name : type", returning the name's position.
func (p *parser) parseArg() (ir.Param, idl.Token, error) {
	dir := ir.In
	if ok, err := p.AcceptKeyword("in"); err != nil {
		return ir.Param{}, idl.Token{}, err
	} else if !ok {
		if ok, err := p.AcceptKeyword("out"); err != nil {
			return ir.Param{}, idl.Token{}, err
		} else if ok {
			dir = ir.Out
		} else if ok, err := p.AcceptKeyword("inout"); err != nil {
			return ir.Param{}, idl.Token{}, err
		} else if ok {
			dir = ir.InOut
		}
	}
	name, at, err := p.ExpectIdent()
	if err != nil {
		return ir.Param{}, at, err
	}
	if err := p.Expect(":"); err != nil {
		return ir.Param{}, at, err
	}
	t, err := p.parseTypeSpec()
	if err == nil {
		err = p.ValueType("argument", at, t)
	}
	return ir.Param{Name: name, Type: t, Dir: dir}, at, err
}
