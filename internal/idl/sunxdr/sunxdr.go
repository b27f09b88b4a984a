// Package sunxdr implements a Sun RPC language (.x file) front-end
// for the stub compiler, covering the rpcgen subset needed for the
// paper's NFS experiment: consts, enums with explicit values,
// structs, typedefs with XDR array/opaque/string declarators, and
// program/version/procedure definitions. Procedures are parsed in
// the multi-argument (rpcgen -N) style.
package sunxdr

import (
	"fmt"

	"flexrpc/internal/idl"
	"flexrpc/internal/ir"
)

// Parse parses a .x source file into an ir.File with typedefs
// resolved. Each program/version pair becomes one ir.Interface
// carrying its program and version numbers.
func Parse(filename, src string) (*ir.File, error) {
	p := &parser{Parser: idl.NewParser(filename, src), file: ir.NewFile(filename)}
	if err := p.parseFile(); err != nil {
		return nil, err
	}
	if err := p.file.Resolve(); err != nil {
		return nil, p.ResolveError(err)
	}
	return p.file, nil
}

type parser struct {
	idl.Parser
	file *ir.File
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
		tok, err := p.Next()
		if err != nil {
			return err
		}
		if tok.Kind != idl.Ident {
			return p.ErrorfAt(tok, "expected declaration, found %s", p.Describe(tok))
		}
		switch p.Text(tok) {
		case "const":
			err = p.parseConst()
		case "typedef":
			err = p.parseTypedef()
		case "struct":
			err = p.parseStruct()
		case "enum":
			err = p.parseEnum()
		case "program":
			err = p.parseProgram()
		case "union":
			return p.ErrorfAt(tok, "XDR unions are not supported by this front-end")
		default:
			return p.ErrorfAt(tok, "unknown declaration %q", p.Text(tok))
		}
		if err != nil {
			return err
		}
	}
}

func (p *parser) parseConst() error {
	name, at, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if err := p.Expect("="); err != nil {
		return err
	}
	v, err := p.constValue()
	if err != nil {
		return err
	}
	if _, dup := p.file.Consts[name]; dup {
		return p.ErrorfAt(at, "duplicate const %q", name)
	}
	p.file.Consts[name] = v
	return p.Expect(";")
}

func (p *parser) constValue() (int64, error) {
	neg, err := p.Accept("-")
	if err != nil {
		return 0, err
	}
	tok, err := p.Next()
	if err != nil {
		return 0, err
	}
	var v int64
	switch tok.Kind {
	case idl.Int:
		v = p.Int(tok)
	case idl.Ident:
		got, ok := p.file.Consts[p.Text(tok)]
		if !ok {
			return 0, p.ErrorfAt(tok, "unknown constant %q", p.Text(tok))
		}
		v = got
	default:
		return 0, p.ErrorfAt(tok, "expected constant, found %s", p.Describe(tok))
	}
	if neg {
		v = -v
	}
	return v, nil
}

// parseTypeSpec parses an XDR type specifier (without declarator
// suffixes).
func (p *parser) parseTypeSpec() (*ir.Type, error) {
	tok, err := p.Next()
	if err != nil {
		return nil, err
	}
	if tok.Kind != idl.Ident {
		return nil, p.ErrorfAt(tok, "expected type, found %s", p.Describe(tok))
	}
	switch p.Text(tok) {
	case "void":
		return ir.VoidType, nil
	case "bool":
		return ir.BoolType, nil
	case "int", "long":
		return ir.Int32Type, nil
	case "hyper":
		return ir.Int64Type, nil
	case "unsigned":
		next, err := p.Peek()
		if err != nil {
			return nil, err
		}
		if next.Kind == idl.Ident {
			switch p.Text(next) {
			case "int", "long":
				_, _ = p.Next()
				return ir.Uint32Type, nil
			case "hyper":
				_, _ = p.Next()
				return ir.Uint64Type, nil
			}
		}
		// Bare "unsigned" means unsigned int in XDR usage.
		return ir.Uint32Type, nil
	case "float":
		return ir.Float32Type, nil
	case "double":
		return ir.Float64Type, nil
	case "opaque":
		// The declarator decides fixed vs variable; signal with a
		// marker type.
		return ir.OctetType, nil
	case "string":
		return ir.StringType, nil
	default:
		return &ir.Type{Kind: ir.Named, Name: p.Text(tok), Off: int(tok.Off)}, nil
	}
}

// parseDecl parses "typespec name" with optional [n], <n>, or <>
// declarator suffixes, returning the field/typedef name and full
// type.
func (p *parser) parseDecl() (string, *ir.Type, error) {
	t, err := p.parseTypeSpec()
	if err != nil {
		return "", nil, err
	}
	if ok, err := p.Accept("*"); err != nil {
		return "", nil, err
	} else if ok {
		return "", nil, p.ErrorfAtNext("XDR optional data (*) is not supported")
	}
	name, at, err := p.ExpectIdent()
	if err != nil {
		return "", nil, err
	}
	if ok, err := p.Accept("["); err != nil {
		return "", nil, err
	} else if ok {
		n, err := p.constValue()
		if err != nil {
			return "", nil, err
		}
		if err := p.Expect("]"); err != nil {
			return "", nil, err
		}
		if t.Kind == ir.StringType.Kind {
			return "", nil, p.ErrorfAt(at, "string cannot be fixed-length")
		}
		return name, ir.ArrayOf(t, int(n)), nil
	}
	if ok, err := p.Accept("<"); err != nil {
		return "", nil, err
	} else if ok {
		closed, err := p.Accept(">")
		if err != nil {
			return "", nil, err
		}
		if !closed {
			if _, err := p.constValue(); err != nil {
				return "", nil, err
			}
			if err := p.Expect(">"); err != nil {
				return "", nil, err
			}
		}
		switch t.Kind {
		case ir.Uint8Kind: // opaque<...>
			return name, ir.BytesType, nil
		case ir.String:
			return name, ir.StringType, nil
		default:
			return name, ir.SeqOf(t), nil
		}
	}
	if t.Kind == ir.Uint8Kind {
		return "", nil, p.ErrorfAt(at, "opaque requires [n] or <> declarator")
	}
	return name, t, nil
}

func (p *parser) parseTypedef() error {
	name, t, err := p.parseDecl()
	if err != nil {
		return err
	}
	if _, dup := p.file.Typedefs[name]; dup {
		return p.ErrorfAtNext("duplicate typedef %q", name)
	}
	p.file.Typedefs[name] = t
	return p.Expect(";")
}

func (p *parser) parseStruct() error {
	name, at, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if err := p.Expect("{"); err != nil {
		return err
	}
	st := &ir.Type{Kind: ir.Struct, Name: name}
	for {
		done, err := p.Accept("}")
		if err != nil {
			return err
		}
		if done {
			break
		}
		fname, ft, err := p.parseDecl()
		if err != nil {
			return err
		}
		st.Fields = append(st.Fields, ir.Field{Name: fname, Type: ft})
		if err := p.Expect(";"); err != nil {
			return err
		}
	}
	if err := p.Expect(";"); err != nil {
		return err
	}
	if _, dup := p.file.Typedefs[name]; dup {
		return p.ErrorfAt(at, "duplicate type %q", name)
	}
	p.file.Typedefs[name] = st
	return nil
}

func (p *parser) parseEnum() error {
	name, at, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if err := p.Expect("{"); err != nil {
		return err
	}
	et := &ir.Type{Kind: ir.Enum, Name: name}
	next := int64(0)
	for {
		id, idAt, err := p.ExpectIdent()
		if err != nil {
			return err
		}
		val := next
		if ok, err := p.Accept("="); err != nil {
			return err
		} else if ok {
			val, err = p.constValue()
			if err != nil {
				return err
			}
		}
		if _, dup := p.file.Consts[id]; dup {
			return p.ErrorfAt(idAt, "duplicate enumerator %q", id)
		}
		p.file.Consts[id] = val
		et.Enumerators = append(et.Enumerators, id)
		next = val + 1
		more, err := p.Accept(",")
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	if err := p.Expect("}"); err != nil {
		return err
	}
	if err := p.Expect(";"); err != nil {
		return err
	}
	if _, dup := p.file.Typedefs[name]; dup {
		return p.ErrorfAt(at, "duplicate type %q", name)
	}
	p.file.Typedefs[name] = et
	return nil
}

func (p *parser) parseProgram() error {
	progName, _, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if err := p.Expect("{"); err != nil {
		return err
	}
	type versionDef struct {
		name string
		ops  []ir.Operation
	}
	var versions []versionDef
	for {
		done, err := p.Accept("}")
		if err != nil {
			return err
		}
		if done {
			break
		}
		if err := p.ExpectKeyword("version"); err != nil {
			return err
		}
		verName, _, err := p.ExpectIdent()
		if err != nil {
			return err
		}
		if err := p.Expect("{"); err != nil {
			return err
		}
		var ops []ir.Operation
		for {
			vdone, err := p.Accept("}")
			if err != nil {
				return err
			}
			if vdone {
				break
			}
			op, err := p.parseProc()
			if err != nil {
				return err
			}
			ops = append(ops, *op)
		}
		if err := p.Expect("="); err != nil {
			return err
		}
		verNum, err := p.constValue()
		if err != nil {
			return err
		}
		if err := p.Expect(";"); err != nil {
			return err
		}
		// The program number arrives only after the program's
		// closing brace, so stash each version until then.
		p.file.Consts[verName] = verNum
		versions = append(versions, versionDef{name: verName, ops: ops})
	}
	if err := p.Expect("="); err != nil {
		return err
	}
	progNum, err := p.constValue()
	if err != nil {
		return err
	}
	if err := p.Expect(";"); err != nil {
		return err
	}
	p.file.Consts[progName] = progNum
	for _, v := range versions {
		iface := &ir.Interface{
			Name:    fmt.Sprintf("%s_%s", progName, v.name),
			Ops:     v.ops,
			Program: uint32(progNum),
			Version: uint32(p.file.Consts[v.name]),
		}
		p.file.Interfaces = append(p.file.Interfaces, iface)
	}
	return nil
}

// parseProc parses one procedure:
//
//	readres NFSPROC_READ(readargs, unsigned) = 6;
func (p *parser) parseProc() (*ir.Operation, error) {
	result, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	if result.Kind == ir.Uint8Kind {
		return nil, p.ErrorfAtNext("opaque cannot be a procedure result")
	}
	name, _, err := p.ExpectIdent()
	if err != nil {
		return nil, err
	}
	op := &ir.Operation{Name: name, Result: result}
	if err := p.Expect("("); err != nil {
		return nil, err
	}
	argn := 0
	for {
		done, err := p.Accept(")")
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		if argn > 0 {
			if err := p.Expect(","); err != nil {
				return nil, err
			}
		}
		t, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		if t.Kind == ir.Void {
			continue // proc(void) has no params
		}
		if t.Kind == ir.Uint8Kind {
			return nil, p.ErrorfAtNext("opaque cannot be a bare argument; use a typedef")
		}
		argn++
		op.Params = append(op.Params, ir.Param{
			Name: fmt.Sprintf("arg%d", argn),
			Type: t,
			Dir:  ir.In,
		})
	}
	if err := p.Expect("="); err != nil {
		return nil, err
	}
	procNum, err := p.constValue()
	if err != nil {
		return nil, err
	}
	op.Proc = uint32(procNum)
	return op, p.Expect(";")
}
