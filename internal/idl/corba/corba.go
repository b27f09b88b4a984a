// Package corba implements a CORBA IDL front-end for the stub
// compiler. It covers the subset the paper's examples use — modules,
// interfaces with in/out/inout operations, the basic types, string,
// sequence<T>, struct, enum, typedef, and const — and lowers them to
// the front-end-neutral ir representation.
package corba

import (
	"flexrpc/internal/idl"
	"flexrpc/internal/ir"
)

// Parse parses CORBA IDL source into an ir.File with all typedefs
// resolved.
func Parse(filename, src string) (*ir.File, error) {
	p := &parser{Decls: idl.Decls{Parser: idl.NewParser(filename, src), File: ir.NewFile(filename)}}
	if err := p.parseFile(); err != nil {
		return nil, err
	}
	return p.Resolve()
}

type parser struct {
	idl.Decls
	depth int // sequences open around the type being parsed
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
		if p.Text(tok) == "module" {
			err = p.parseModule()
		} else {
			err = p.definition(tok, "")
		}
		if err != nil {
			return err
		}
	}
}

// parseModule flattens module contents into the file; qualified
// names are not needed by any of the paper's interfaces.
func (p *parser) parseModule() error {
	if _, _, err := p.ExpectIdent(); err != nil {
		return err
	}
	if err := p.Expect("{"); err != nil {
		return err
	}
	for {
		ok, err := p.Accept("}")
		if err != nil {
			return err
		}
		if ok {
			break
		}
		tok, err := p.Next()
		if err != nil {
			return err
		}
		if tok.Kind != idl.Ident {
			return p.ErrorfAt(tok, "expected declaration in module, found %s", p.Describe(tok))
		}
		if err := p.definition(tok, " in module"); err != nil {
			return err
		}
	}
	_, err := p.Accept(";")
	return err
}

// definition parses the definition keyword tok opens, in a module or
// at the top level.
func (p *parser) definition(tok idl.Token, where string) error {
	switch p.Text(tok) {
	case "interface":
		return p.parseInterface()
	case "typedef":
		return p.Typedef(p.declarator)
	case "struct":
		return p.Struct(p.declarator)
	case "enum":
		return p.Enum(false)
	case "const":
		if _, err := p.parseType(); err != nil {
			return err
		}
		return p.Const()
	}
	return p.ErrorfAt(tok, "unknown declaration %q%s", p.Text(tok), where)
}

func (p *parser) parseInterface() error {
	name, at, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if p.File.Interface(name) != nil {
		return p.ErrorfAt(at, "duplicate interface %q", name)
	}
	var buf [16]ir.Operation // the operations of most interfaces
	ops := buf[:0]
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
		op, err := p.parseOperation()
		if err != nil {
			return err
		}
		for i := range ops {
			if ops[i].Name == op.Name {
				return p.ErrorfAt(at, "duplicate operation %q in interface %q", op.Name, name)
			}
		}
		ops = append(ops, op)
	}
	if _, err := p.Accept(";"); err != nil {
		return err
	}
	p.File.Interfaces = append(p.File.Interfaces, &ir.Interface{Name: name, Ops: idl.Exact(ops)})
	return nil
}

func (p *parser) parseOperation() (op ir.Operation, err error) {
	if op.Oneway, err = p.AcceptKeyword("oneway"); err != nil {
		return op, err
	}
	if op.Result, err = p.parseType(); err != nil {
		return op, err
	}
	var at idl.Token
	if op.Name, at, err = p.ExpectIdent(); err != nil {
		return op, err
	}
	if err := p.ValueType("result of", at, op.Result); err != nil {
		return op, err
	}
	if err := p.Expect("("); err != nil {
		return op, err
	}
	for {
		done, err := p.Accept(")")
		if err != nil {
			return op, err
		}
		if done {
			break
		}
		if len(op.Params) > 0 {
			if err := p.Expect(","); err != nil {
				return op, err
			}
		}
		param, err := p.parseParam(&op)
		if err != nil {
			return op, err
		}
		op.Params = append(op.Params, param)
	}
	if op.Oneway && (op.HasResult() || hasOutParam(&op)) {
		return op, p.ErrorfAt(at, "corba: oneway operation %q must not return data", op.Name)
	}
	return op, p.Expect(";")
}

func hasOutParam(op *ir.Operation) bool {
	for _, param := range op.Params {
		if param.Dir != ir.In {
			return true
		}
	}
	return false
}

// parseParam parses op's next parameter.
func (p *parser) parseParam(op *ir.Operation) (ir.Param, error) {
	tok, err := p.Next()
	if err != nil {
		return ir.Param{}, err
	}
	if tok.Kind != idl.Ident {
		return ir.Param{}, p.ErrorfAt(tok, "expected parameter direction, found %s", p.Describe(tok))
	}
	var dir ir.Direction
	switch p.Text(tok) {
	case "in":
		dir = ir.In
	case "out":
		dir = ir.Out
	case "inout":
		dir = ir.InOut
	default:
		return ir.Param{}, p.ErrorfAt(tok, "expected in/out/inout, found %q", p.Text(tok))
	}
	t, err := p.parseType()
	if err != nil {
		return ir.Param{}, err
	}
	name, at, err := p.ExpectIdent()
	if err == nil && op.ParamNameTaken(name) {
		err = p.ErrorfAt(at, "operation %q: parameter name %q is taken", op.Name, name)
	}
	if err == nil {
		err = p.ValueType("parameter", at, t)
	}
	return ir.Param{Name: name, Type: t, Dir: dir}, err
}

// parseType parses a CORBA type specifier.
func (p *parser) parseType() (*ir.Type, error) {
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
	case "boolean":
		return ir.BoolType, nil
	case "octet", "char":
		return ir.OctetType, nil
	case "short":
		return ir.Int32Type, nil
	case "long":
		long2, err := p.AcceptKeyword("long")
		if err != nil {
			return nil, err
		}
		if long2 {
			return ir.Int64Type, nil
		}
		return ir.Int32Type, nil
	case "unsigned":
		t2, err := p.Next()
		if err != nil {
			return nil, err
		}
		switch p.Text(t2) {
		case "short":
			return ir.Uint32Type, nil
		case "long":
			long2, err := p.AcceptKeyword("long")
			if err != nil {
				return nil, err
			}
			if long2 {
				return ir.Uint64Type, nil
			}
			return ir.Uint32Type, nil
		}
		return nil, p.ErrorfAt(t2, "expected short/long after unsigned, found %s", p.Describe(t2))
	case "float":
		return ir.Float32Type, nil
	case "double":
		return ir.Float64Type, nil
	case "string":
		return ir.StringType, nil
	case "Object":
		return ir.PortType, nil
	case "sequence":
		if p.depth == ir.MaxTypeDepth {
			return nil, p.ErrorfAt(tok, "type nests deeper than %d levels", ir.MaxTypeDepth)
		}
		if err := p.Expect("<"); err != nil {
			return nil, err
		}
		p.depth++
		elem, err := p.parseType()
		p.depth--
		if err != nil {
			return nil, err
		}
		// An optional bound (sequence<octet, 512>) is parsed and
		// recorded nowhere: bounds affect neither presentation nor
		// our wire forms.
		if ok, err := p.Accept(","); err != nil {
			return nil, err
		} else if ok {
			if _, err := p.Bound(); err != nil {
				return nil, err
			}
		}
		if err := p.Expect(">"); err != nil {
			return nil, err
		}
		return ir.SeqOf(elem), nil
	default:
		return &ir.Type{Kind: ir.Named, Name: p.Text(tok), Off: int(tok.Off)}, nil
	}
}

// declarator parses a type and the name it declares, with an optional
// array suffix: long v[N].
func (p *parser) declarator() (ir.Field, idl.Token, error) {
	t, err := p.parseType()
	if err != nil {
		return ir.Field{}, idl.Token{}, err
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
		t = ir.ArrayOf(t, n)
	}
	return ir.Field{Name: name, Type: t}, at, nil
}
