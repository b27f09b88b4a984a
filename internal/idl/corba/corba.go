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
	p := &parser{Parser: idl.NewParser(filename, src), file: ir.NewFile(filename)}
	if err := p.parseFile(); err != nil {
		return nil, err
	}
	if err := p.file.Resolve(); err != nil {
		return nil, p.ResolveError(err)
	}
	return p.file, nil
}

// exact copies a list parsed into a stack buffer to the heap, at its
// length: one allocation where appending to the heap makes one per
// doubling.
func exact[T any](list []T) []T {
	if len(list) == 0 {
		return nil
	}
	return append(make([]T, 0, len(list)), list...)
}

type parser struct {
	idl.Parser
	file  *ir.File
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
		switch p.Text(tok) {
		case "module":
			if err := p.parseModule(); err != nil {
				return err
			}
		case "interface":
			if err := p.parseInterface(); err != nil {
				return err
			}
		case "typedef":
			if err := p.parseTypedef(); err != nil {
				return err
			}
		case "struct":
			if err := p.parseStruct(); err != nil {
				return err
			}
		case "enum":
			if err := p.parseEnum(); err != nil {
				return err
			}
		case "const":
			if err := p.parseConst(); err != nil {
				return err
			}
		default:
			return p.ErrorfAt(tok, "unknown declaration %q", p.Text(tok))
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
		switch p.Text(tok) {
		case "interface":
			err = p.parseInterface()
		case "typedef":
			err = p.parseTypedef()
		case "struct":
			err = p.parseStruct()
		case "enum":
			err = p.parseEnum()
		case "const":
			err = p.parseConst()
		default:
			return p.ErrorfAt(tok, "unknown declaration %q in module", p.Text(tok))
		}
		if err != nil {
			return err
		}
	}
	_, err := p.Accept(";")
	return err
}

func (p *parser) parseInterface() error {
	name, at, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if p.file.Interface(name) != nil {
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
	p.file.Interfaces = append(p.file.Interfaces, &ir.Interface{Name: name, Ops: exact(ops)})
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
			if _, err := p.constValue(); err != nil {
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

// constValue parses an integer literal or a previously declared
// const identifier.
func (p *parser) constValue() (int64, error) {
	tok, err := p.Next()
	if err != nil {
		return 0, err
	}
	switch tok.Kind {
	case idl.Int:
		return p.Int(tok), nil
	case idl.Ident:
		if v, ok := p.file.Consts[p.Text(tok)]; ok {
			return v, nil
		}
		return 0, p.ErrorfAt(tok, "unknown constant %q", p.Text(tok))
	}
	return 0, p.ErrorfAt(tok, "expected constant, found %s", p.Describe(tok))
}

func (p *parser) parseTypedef() error {
	t, err := p.parseType()
	if err != nil {
		return err
	}
	name, at, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	// Array suffix: typedef octet buf[512];
	if ok, err := p.Accept("["); err != nil {
		return err
	} else if ok {
		n, err := p.constValue()
		if err != nil {
			return err
		}
		if err := p.Expect("]"); err != nil {
			return err
		}
		t = ir.ArrayOf(t, int(n))
	}
	if _, dup := p.file.Typedefs[name]; dup {
		return p.ErrorfAt(at, "duplicate typedef %q", name)
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
	var buf [32]ir.Field // the fields of most structs
	fields := buf[:0]
	for {
		done, err := p.Accept("}")
		if err != nil {
			return err
		}
		if done {
			break
		}
		ft, err := p.parseType()
		if err != nil {
			return err
		}
		fname, _, err := p.ExpectIdent()
		if err != nil {
			return err
		}
		fields = append(fields, ir.Field{Name: fname, Type: ft})
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
	p.file.Typedefs[name] = &ir.Type{Kind: ir.Struct, Name: name, Fields: exact(fields)}
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
	for {
		id, _, err := p.ExpectIdent()
		if err != nil {
			return err
		}
		p.file.Consts[id] = int64(len(et.Enumerators))
		et.Enumerators = append(et.Enumerators, id)
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

func (p *parser) parseConst() error {
	if _, err := p.parseType(); err != nil {
		return err
	}
	name, at, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if err := p.Expect("="); err != nil {
		return err
	}
	neg, err := p.Accept("-")
	if err != nil {
		return err
	}
	v, err := p.constValue()
	if err != nil {
		return err
	}
	if neg {
		v = -v
	}
	if _, dup := p.file.Consts[name]; dup {
		return p.ErrorfAt(at, "duplicate const %q", name)
	}
	p.file.Consts[name] = v
	return p.Expect(";")
}
