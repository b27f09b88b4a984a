package idl

import (
	"errors"
	"fmt"

	"flexrpc/internal/ir"
)

// Decls is the declaration layer the IDL front ends share, over their
// Parser: constant values and bounds, const, typedef, struct and enum
// declarations, and the one define per namespace of the file they
// build. A front end keeps only its dialect — type keywords, its
// declarator, its interface syntax — and defines every name it adds
// through DefineConst or DefineType.
type Decls struct {
	Parser
	File *ir.File // the file being built, from ir.NewFile
}

// A Declarator parses one declarator of a dialect: a type and the name
// it declares, with any array or sequence suffix the dialect allows. It
// returns the name's token, for a position.
type Declarator func() (ir.Field, Token, error)

// Resolve resolves the typedefs of the parsed file (ir.File.Resolve)
// and returns it. An error is positioned at the reference it could not
// follow, when it names one, else at the file.
func (d *Decls) Resolve() (*ir.File, error) {
	err := d.File.Resolve()
	if err == nil {
		return d.File, nil
	}
	var ref *ir.RefError
	if errors.As(err, &ref) && ref.Off <= len(d.src) {
		return nil, &Error{Pos: offsetPos(d.file, d.src, ref.Off), Msg: err.Error()}
	}
	return nil, fmt.Errorf("%s: %w", d.file, err)
}

// Value parses a constant value: an integer literal or a declared
// const, after an optional minus.
func (d *Decls) Value() (int64, error) {
	v, _, err := d.value()
	return v, err
}

// Bound parses an array or sequence bound: a Value that is not
// negative.
func (d *Decls) Bound() (int, error) {
	v, at, err := d.value()
	if err == nil && v < 0 {
		err = d.ErrorfAt(at, "negative bound %d", v)
	}
	return int(v), err
}

// value parses a Value, returning its first token.
func (d *Decls) value() (int64, Token, error) {
	first, err := d.Next()
	if err != nil {
		return 0, first, err
	}
	tok := first
	if d.is(first, Punct, "-") {
		if tok, err = d.Next(); err != nil {
			return 0, first, err
		}
	}
	var v int64
	switch tok.Kind {
	case Int:
		v = d.Int(tok)
	case Ident:
		got, ok := d.File.Consts[d.Text(tok)]
		if !ok {
			return 0, first, d.ErrorfAt(tok, "unknown constant %q", d.Text(tok))
		}
		v = got
	default:
		return 0, first, d.ErrorfAt(tok, "expected constant, found %s", d.Describe(tok))
	}
	if tok != first {
		v = -v
	}
	return v, first, nil
}

// DefineConst defines a named number in the file's const namespace:
// what says which kind of name it is (a const, an enumerator, a
// program), for a message. A name is defined once; a second definition
// is an error at its name.
func (d *Decls) DefineConst(what, name string, at Token, v int64) error {
	if _, dup := d.File.Consts[name]; dup {
		return d.ErrorfAt(at, "duplicate %s %q", what, name)
	}
	d.File.Consts[name] = v
	return nil
}

// DefineType defines a named type in the file's typedef namespace, as
// DefineConst does a number.
func (d *Decls) DefineType(what, name string, at Token, t *ir.Type) error {
	if _, dup := d.File.Typedefs[name]; dup {
		return d.ErrorfAt(at, "duplicate %s %q", what, name)
	}
	d.File.Typedefs[name] = t
	return nil
}

// ValueType checks that t, the type of the parameter, result or field
// named by token at (what says which), is not a bare octet, which has
// no wire type of its own; ir.File.Resolve refuses one that a typedef
// names.
func (d *Decls) ValueType(what string, at Token, t *ir.Type) error {
	if t.Kind == ir.Uint8Kind {
		return d.ErrorfAt(at, "%s %q: a bare octet has no wire type; use a sequence or array of it", what, d.Text(at))
	}
	return nil
}

// Const parses the rest of a const declaration, "name = value ;".
func (d *Decls) Const() error {
	name, at, err := d.ExpectIdent()
	if err != nil {
		return err
	}
	if err := d.Expect("="); err != nil {
		return err
	}
	v, err := d.Value()
	if err != nil {
		return err
	}
	if err := d.DefineConst("const", name, at, v); err != nil {
		return err
	}
	return d.Expect(";")
}

// Typedef parses the rest of a typedef, "declarator ;".
func (d *Decls) Typedef(decl Declarator) error {
	f, at, err := decl()
	if err != nil {
		return err
	}
	if err := d.DefineType("typedef", f.Name, at, f.Type); err != nil {
		return err
	}
	return d.Expect(";")
}

// Struct parses the rest of a struct declaration,
// "name { member ; ... } ;". CORBA and XDR both require a member: a
// struct without one has no wire bytes, so nothing would bound how many
// of them a sequence's length word claims.
func (d *Decls) Struct(member Declarator) error {
	name, at, err := d.ExpectIdent()
	if err != nil {
		return err
	}
	if err := d.Expect("{"); err != nil {
		return err
	}
	var buf [32]ir.Field // the fields of most structs
	fields := buf[:0]
	for {
		done, err := d.Accept("}")
		if err != nil {
			return err
		}
		if done {
			break
		}
		f, fieldAt, err := member()
		if err == nil {
			err = d.ValueType("field", fieldAt, f.Type)
		}
		if err != nil {
			return err
		}
		fields = append(fields, f)
		if err := d.Expect(";"); err != nil {
			return err
		}
	}
	if len(fields) == 0 {
		return d.ErrorfAt(at, "struct %q has no members; it needs at least one", name)
	}
	if err := d.Expect(";"); err != nil {
		return err
	}
	return d.DefineType("type", name, at, &ir.Type{Kind: ir.Struct, Name: name, Fields: Exact(fields)})
}

// Enum parses the rest of an enum declaration, "name { id, ... } ;",
// and defines each enumerator as a const. An enumerator is one more
// than the one before it, the first 0, unless the dialect allows
// values (XDR: "id = value") and it has one.
func (d *Decls) Enum(values bool) error {
	name, at, err := d.ExpectIdent()
	if err != nil {
		return err
	}
	if err := d.Expect("{"); err != nil {
		return err
	}
	var buf [32]string // the enumerators of most enums
	ids := buf[:0]
	for next := int64(0); ; {
		id, idAt, err := d.ExpectIdent()
		if err != nil {
			return err
		}
		if values {
			if ok, err := d.Accept("="); err != nil {
				return err
			} else if ok {
				if next, err = d.Value(); err != nil {
					return err
				}
			}
		}
		if err := d.DefineConst("enumerator", id, idAt, next); err != nil {
			return err
		}
		ids = append(ids, id)
		next++
		more, err := d.Accept(",")
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	if err := d.Expect("}"); err != nil {
		return err
	}
	if err := d.Expect(";"); err != nil {
		return err
	}
	return d.DefineType("type", name, at, &ir.Type{Kind: ir.Enum, Name: name, Enumerators: Exact(ids)})
}

// Exact copies a list parsed into a stack buffer to the heap, at its
// length: one allocation where appending to the heap makes one per
// doubling.
func Exact[T any](list []T) []T {
	if len(list) == 0 {
		return nil
	}
	return append(make([]T, 0, len(list)), list...)
}
