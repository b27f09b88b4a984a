// Package xdr implements the External Data Representation standard
// (RFC 1014 / RFC 4506), the wire encoding used by Sun RPC.
//
// XDR encodes every item as a multiple of four bytes, big-endian.
// The package provides a buffer-backed Encoder/Decoder pair covering
// every XDR primitive, plus helpers for the composite forms (optional
// data, variable-length arrays, unions) that stub compilers emit.
package xdr

import (
	"errors"
	"fmt"
	"math"
)

// UnitSize is the fundamental XDR alignment unit, in bytes.
const UnitSize = 4

var (
	// ErrShortBuffer is returned when a decode runs off the end of
	// the input.
	ErrShortBuffer = errors.New("xdr: short buffer")
	// ErrBadPadding is returned when the pad bytes of an opaque or
	// string are not zero, which RFC 4506 requires.
	ErrBadPadding = errors.New("xdr: nonzero padding")
	// ErrLengthOverflow is returned when a variable-length item
	// declares a length exceeding the decoder's limit.
	ErrLengthOverflow = errors.New("xdr: declared length exceeds limit")
	// ErrBadBool is returned when a decoded boolean is neither 0 nor 1.
	ErrBadBool = errors.New("xdr: boolean not 0 or 1")
)

// Pad returns the number of zero bytes needed to pad n up to a
// four-byte boundary.
func Pad(n int) int {
	return (UnitSize - n%UnitSize) % UnitSize
}

// PaddedLen returns n rounded up to a four-byte boundary.
func PaddedLen(n int) int {
	return n + Pad(n)
}

// An Encoder marshals XDR items into a growable byte buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded data. The slice aliases the encoder's
// internal buffer and is valid until the next Put call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset discards all encoded data but retains the buffer capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// ResetTo re-aims the encoder at caller-provided storage: encoded
// data is appended into buf's backing array, capped at len(buf), so a
// marshaler can target a transport's fixed buffer (an fbuf arena)
// directly. Encoding past the cap falls back to append's reallocation
// — callers detect that by comparing backing arrays.
func (e *Encoder) ResetTo(buf []byte) { e.buf = buf[:0:len(buf)] }

// SetBytes installs b — Bytes() with more encoded data appended to it
// — as the encoded data, so an append-style producer can write straight
// into the encoder's buffer.
func (e *Encoder) SetBytes(b []byte) { e.buf = b }

// PutUint32 encodes a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// PutInt32 encodes a 32-bit signed integer.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutUint64 encodes an XDR unsigned hyper.
func (e *Encoder) PutUint64(v uint64) {
	e.PutUint32(uint32(v >> 32))
	e.PutUint32(uint32(v))
}

// PutInt64 encodes an XDR hyper.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutBool encodes an XDR boolean (0 or 1).
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutFloat32 encodes an IEEE-754 single-precision float.
func (e *Encoder) PutFloat32(v float32) { e.PutUint32(math.Float32bits(v)) }

// PutFloat64 encodes an IEEE-754 double-precision float.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// PutFixedOpaque encodes fixed-length opaque data: the bytes followed
// by zero padding to a four-byte boundary. The length is not encoded;
// it is part of the type per RFC 4506 §4.9.
func (e *Encoder) PutFixedOpaque(b []byte) {
	e.buf = append(e.buf, b...)
	for i := 0; i < Pad(len(b)); i++ {
		e.buf = append(e.buf, 0)
	}
}

// PutOpaque encodes variable-length opaque data: length word, bytes,
// zero padding.
func (e *Encoder) PutOpaque(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.PutFixedOpaque(b)
}

// PutString encodes an XDR string (identical wire form to opaque).
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	for i := 0; i < Pad(len(s)); i++ {
		e.buf = append(e.buf, 0)
	}
}

// PutRaw appends pre-encoded XDR data verbatim. The caller is
// responsible for its alignment; transports use this to embed an
// already-marshaled body.
func (e *Encoder) PutRaw(b []byte) { e.buf = append(e.buf, b...) }

// PutArrayLen encodes the element count of a variable-length array.
func (e *Encoder) PutArrayLen(n int) { e.PutUint32(uint32(n)) }

// A Decoder unmarshals XDR items from a byte slice.
type Decoder struct {
	buf []byte
	off int
	// MaxLength bounds every variable-length item (opaque, string,
	// array counts). Zero means DefaultMaxLength.
	MaxLength uint32
}

// DefaultMaxLength is the variable-length bound used by Decoders that
// do not set one explicitly. It is large enough for any message the
// transports in this repository produce while still rejecting
// corrupt length words early.
const DefaultMaxLength = 64 << 20

// NewDecoder returns a Decoder reading from buf.
func NewDecoder(buf []byte) *Decoder {
	return &Decoder{buf: buf}
}

// Reset re-aims the decoder at a new buffer, rewinding it. Hot paths
// use this to reuse one Decoder across messages without allocating.
func (d *Decoder) Reset(buf []byte) {
	d.buf = buf
	d.off = 0
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) maxLen() uint32 {
	if d.MaxLength == 0 {
		return DefaultMaxLength
	}
	return d.MaxLength
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < UnitSize {
		return 0, ErrShortBuffer
	}
	b := d.buf[d.off:]
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	d.off += UnitSize
	return v, nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes an XDR unsigned hyper.
func (d *Decoder) Uint64() (uint64, error) {
	hi, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	lo, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// Int64 decodes an XDR hyper.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes an XDR boolean, rejecting values other than 0 and 1.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, ErrBadBool
}

// Float32 decodes an IEEE-754 single-precision float.
func (d *Decoder) Float32() (float32, error) {
	v, err := d.Uint32()
	return math.Float32frombits(v), err
}

// Float64 decodes an IEEE-754 double-precision float.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}

func (d *Decoder) checkPadding(n int) error {
	for i := 0; i < Pad(n); i++ {
		if d.buf[d.off+n+i] != 0 {
			return ErrBadPadding
		}
	}
	return nil
}

// FixedOpaque decodes n bytes of fixed-length opaque data plus
// padding. The returned slice aliases the decoder's buffer.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 || d.Remaining() < PaddedLen(n) {
		return nil, ErrShortBuffer
	}
	if err := d.checkPadding(n); err != nil {
		return nil, err
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += PaddedLen(n)
	return b, nil
}

// FixedOpaqueInto decodes fixed-length opaque data directly into dst,
// avoiding any intermediate allocation. This is the primitive the
// [special] presentation attribute builds on: a stub can unmarshal
// straight into a caller-supplied buffer.
func (d *Decoder) FixedOpaqueInto(dst []byte) error {
	n := len(dst)
	if d.Remaining() < PaddedLen(n) {
		return ErrShortBuffer
	}
	if err := d.checkPadding(n); err != nil {
		return err
	}
	copy(dst, d.buf[d.off:])
	d.off += PaddedLen(n)
	return nil
}

// Opaque decodes variable-length opaque data. The returned slice
// aliases the decoder's buffer.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > d.maxLen() {
		return nil, fmt.Errorf("%w: %d", ErrLengthOverflow, n)
	}
	return d.FixedOpaque(int(n))
}

// OpaqueInto decodes variable-length opaque data into dst when it
// fits, returning dst resliced to the data length; when the data is
// larger than dst it is returned in freshly allocated storage instead,
// never truncated. Either way the caller owns the result.
func (d *Decoder) OpaqueInto(dst []byte) ([]byte, error) {
	b, err := d.Opaque()
	if err != nil {
		return nil, err
	}
	if len(b) <= len(dst) {
		n := copy(dst, b)
		return dst[:n], nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	b, err := d.StringBytes()
	return string(b), err
}

// StringBytes decodes an XDR string without copying it: the returned
// slice aliases the decoder's buffer, under the same length bound and
// padding check as String.
func (d *Decoder) StringBytes() ([]byte, error) { return d.Opaque() }

// Raw returns the next n bytes as they are, aliasing the decoder's
// buffer, and consumes them: one bounds check for a run of items the
// caller decodes itself. n must keep the decoder on a four-byte
// boundary.
func (d *Decoder) Raw(n int) ([]byte, error) {
	if n < 0 || d.Remaining() < n {
		return nil, ErrShortBuffer
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b, nil
}

// ArrayLen decodes a variable-length array count, bounded by the
// decoder's length limit.
func (d *Decoder) ArrayLen() (int, error) {
	n, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	if n > d.maxLen() {
		return 0, fmt.Errorf("%w: %d", ErrLengthOverflow, n)
	}
	return int(n), nil
}

// Rest returns the unread remainder of the buffer, consuming it.
// Transports use this to hand an embedded pre-encoded body to
// another decoder.
func (d *Decoder) Rest() []byte {
	b := d.buf[d.off:]
	d.off = len(d.buf)
	return b
}
