// Package runtime implements the interpreted stub back-end: marshal
// plans compiled from an interface's IR and a presentation, executed
// against pluggable codecs and transports, plus the same-domain
// invocation engine that derives copy/borrow and allocation
// semantics from the two endpoints' presentation attributes (paper
// §4.4).
//
// The paper's own same-domain stubs computed invocation semantics at
// run time, once per invocation, and found the overhead negligible;
// this back-end does the same, so the figures it reproduces include
// that cost.
package runtime

import (
	"fmt"

	"flexrpc/internal/ir"
)

// A Value is the runtime representation of one IR-typed value:
//
//	Bool                -> bool
//	Int32, Enum         -> int32
//	Uint32              -> uint32
//	Int64               -> int64
//	Uint64              -> uint64
//	Float32             -> float32
//	Float64             -> float64
//	String              -> string
//	Bytes, FixedBytes   -> []byte
//	Seq, Array          -> []Value
//	Struct              -> []Value (field order)
//	Port                -> PortName
//	Void                -> nil
type Value = any

// PortName is a transferred capability reference, carried as a
// 32-bit task-local name.
type PortName uint32

func typeErr(t *ir.Type, v Value) error {
	return fmt.Errorf("runtime: value %T does not match wire type %s", v, t.Signature())
}

// kindErr is typeErr for a type that is its kind alone.
func kindErr(k ir.Kind, v Value) error { return typeErr(&ir.Type{Kind: k}, v) }

// ZeroValue returns the zero Value of wire type t.
func ZeroValue(t *ir.Type) Value {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case ir.Void:
		return nil
	case ir.Bool:
		return false
	case ir.Int32, ir.Enum:
		return int32(0)
	case ir.Uint32:
		return uint32(0)
	case ir.Int64:
		return int64(0)
	case ir.Uint64:
		return uint64(0)
	case ir.Float32:
		return float32(0)
	case ir.Float64:
		return float64(0)
	case ir.String:
		return ""
	case ir.Bytes:
		return []byte(nil)
	case ir.FixedBytes:
		return make([]byte, t.Size)
	case ir.Seq:
		return []Value(nil)
	case ir.Array:
		vs := make([]Value, t.Size)
		for i := range vs {
			vs[i] = ZeroValue(t.Elem)
		}
		return vs
	case ir.Struct:
		vs := make([]Value, len(t.Fields))
		for i, f := range t.Fields {
			vs[i] = ZeroValue(f.Type)
		}
		return vs
	case ir.Port:
		return PortName(0)
	}
	return nil
}

// CopyValue returns a deep copy of v (wire type t): the copy the
// same-domain stubs make when neither [trashable] nor [preserved]
// lets them pass the original by reference. A value of a type that is
// not mutable is its own copy. A value whose kind does not match t
// fails with the text its encode fails with.
func CopyValue(t *ir.Type, v Value) (Value, error) {
	if !mutable(t) || v == nil {
		return v, nil
	}
	if t.Kind == ir.Bytes || t.Kind == ir.FixedBytes {
		src, ok := v.([]byte)
		if !ok {
			return nil, typeErr(t, v)
		}
		return append(make([]byte, 0, len(src)), src...), nil
	}
	src, ok := v.([]Value)
	if !ok {
		return nil, typeErr(t, v)
	}
	if t.Kind == ir.Struct && len(src) != len(t.Fields) {
		return nil, fmt.Errorf("runtime: struct %s needs %d fields, have %d", t.Name, len(t.Fields), len(src))
	}
	dst := make([]Value, len(src))
	for i, e := range src {
		var err error
		if t.Kind != ir.Struct {
			if dst[i], err = CopyValue(t.Elem, e); err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
		} else if dst[i], err = CopyValue(t.Fields[i].Type, e); err != nil {
			return nil, fmt.Errorf("field %s: %w", t.Fields[i].Name, err)
		}
	}
	return dst, nil
}

// mutable reports whether a value of type t can be changed through a
// reference to it: byte buffers, sequences, arrays and structs. Scalars,
// strings and port names cannot.
func mutable(t *ir.Type) bool {
	if t == nil {
		return false
	}
	switch t.Kind {
	case ir.Bytes, ir.FixedBytes, ir.Seq, ir.Array, ir.Struct:
		return true
	}
	return false
}
