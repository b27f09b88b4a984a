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
	p := &parser{Decls: idl.Decls{Parser: idl.NewParser(filename, src), File: ir.NewFile(filename)}}
	if err := p.parseFile(); err != nil {
		return nil, err
	}
	return p.Resolve()
}

type parser struct {
	idl.Decls
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
			err = p.Const()
		case "typedef":
			err = p.Typedef(p.declarator)
		case "struct":
			err = p.Struct(p.declarator)
		case "enum":
			err = p.Enum(true)
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

// declarator parses "typespec name" with an optional [n], <n> or <>
// suffix.
func (p *parser) declarator() (ir.Field, idl.Token, error) {
	t, err := p.parseTypeSpec()
	if err != nil {
		return ir.Field{}, idl.Token{}, err
	}
	if ok, err := p.Accept("*"); err != nil {
		return ir.Field{}, idl.Token{}, err
	} else if ok {
		return ir.Field{}, idl.Token{}, p.ErrorfAtNext("XDR optional data (*) is not supported")
	}
	name, at, err := p.ExpectIdent()
	if err != nil {
		return ir.Field{}, at, err
	}
	if ok, err := p.Accept("["); err != nil {
		return ir.Field{}, at, err
	} else if ok {
		n, err := p.Bound()
		if err != nil {
			return ir.Field{}, at, err
		}
		if err := p.Expect("]"); err != nil {
			return ir.Field{}, at, err
		}
		if t.Kind == ir.StringType.Kind {
			return ir.Field{}, at, p.ErrorfAt(at, "string cannot be fixed-length")
		}
		return ir.Field{Name: name, Type: ir.ArrayOf(t, n)}, at, nil
	}
	if ok, err := p.Accept("<"); err != nil {
		return ir.Field{}, at, err
	} else if ok {
		closed, err := p.Accept(">")
		if err != nil {
			return ir.Field{}, at, err
		}
		if !closed {
			if _, err := p.Bound(); err != nil {
				return ir.Field{}, at, err
			}
			if err := p.Expect(">"); err != nil {
				return ir.Field{}, at, err
			}
		}
		switch t.Kind {
		case ir.Uint8Kind: // opaque<...>
			t = ir.BytesType
		case ir.String:
		default:
			t = ir.SeqOf(t)
		}
		return ir.Field{Name: name, Type: t}, at, nil
	}
	if t.Kind == ir.Uint8Kind {
		return ir.Field{}, at, p.ErrorfAt(at, "opaque requires [n] or <> declarator")
	}
	return ir.Field{Name: name, Type: t}, at, nil
}

func (p *parser) parseProgram() error {
	progName, progAt, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if err := p.Expect("{"); err != nil {
		return err
	}
	// The program number arrives only after the program's closing
	// brace, so each version waits until then.
	var versions []*ir.Interface
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
		verName, verAt, err := p.ExpectIdent()
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
			op, err := p.parseProc(ops)
			if err != nil {
				return err
			}
			ops = append(ops, *op)
		}
		if err := p.Expect("="); err != nil {
			return err
		}
		verNum, err := p.Value()
		if err != nil {
			return err
		}
		if err := p.DefineConst("version", verName, verAt, verNum); err != nil {
			return err
		}
		if err := p.Expect(";"); err != nil {
			return err
		}
		versions = append(versions, &ir.Interface{Name: progName + "_" + verName, Ops: ops, Version: uint32(verNum)})
	}
	if err := p.Expect("="); err != nil {
		return err
	}
	progNum, err := p.Value()
	if err != nil {
		return err
	}
	if err := p.DefineConst("program", progName, progAt, progNum); err != nil {
		return err
	}
	for _, v := range versions {
		v.Program = uint32(progNum)
	}
	p.File.Interfaces = append(p.File.Interfaces, versions...)
	return p.Expect(";")
}

// parseProc parses one procedure of a version that has ops so far:
//
//	readres NFSPROC_READ(readargs, unsigned) = 6;
func (p *parser) parseProc(ops []ir.Operation) (*ir.Operation, error) {
	result, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	if result.Kind == ir.Uint8Kind {
		return nil, p.ErrorfAtNext("opaque cannot be a procedure result")
	}
	name, at, err := p.ExpectIdent()
	if err != nil {
		return nil, err
	}
	for i := range ops {
		if ops[i].Name == name {
			return nil, p.ErrorfAt(at, "duplicate procedure %q", name)
		}
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
	numAt, err := p.Peek()
	if err != nil {
		return nil, err
	}
	procNum, err := p.Value()
	if err != nil {
		return nil, err
	}
	op.Proc = uint32(procNum)
	// A server dispatches by number: a second procedure of one number
	// could never be called.
	for i := range ops {
		if ops[i].Proc == op.Proc {
			return nil, p.ErrorfAt(numAt, "procedure %q: number %d is taken by %q", name, procNum, ops[i].Name)
		}
	}
	return op, p.Expect(";")
}
