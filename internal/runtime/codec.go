package runtime

import (
	"encoding/binary"
	"math"

	"flexrpc/internal/cdr"
	"flexrpc/internal/xdr"
)

func f32bits(v float32) uint32     { return math.Float32bits(v) }
func f32frombits(v uint32) float32 { return math.Float32frombits(v) }
func f64bits(v float64) uint64     { return math.Float64bits(v) }
func f64frombits(v uint64) float64 { return math.Float64frombits(v) }

// A Codec is a wire encoding the marshal plans can target. The stub
// compiler back-ends are codec-agnostic: the same plan marshals to
// Sun XDR or CORBA CDR depending on the transport's choice. The set is
// closed — XDRCodec, CDRCodec and CDRCodecLE below — so every hot path
// may rely on everything Encoder and Decoder declare.
type Codec interface {
	Name() string
	NewEncoder() Encoder
	NewDecoder(buf []byte) Decoder
}

// An Encoder appends wire-format primitives. Its owner reuses it
// across messages: Reset empties it, and ResetArena(dst) makes
// subsequent Puts land in dst's backing array (up to its length), so a
// marshal plan can encode a message directly into a transport buffer —
// a ring-buffer slot — with no intermediate record buffer and no copy
// (see ArenaLen).
type Encoder interface {
	PutBool(bool)
	PutInt32(int32)
	PutUint32(uint32)
	PutInt64(int64)
	PutUint64(uint64)
	PutFloat32(float32)
	PutFloat64(float64)
	PutString(string)
	PutBytes([]byte)      // variable-length opaque
	PutFixedBytes([]byte) // fixed-length opaque
	PutLen(int)           // sequence/array element count
	Bytes() []byte
	Reset()
	ResetArena(dst []byte)
}

// A Decoder reads wire-format primitives. Its owner re-aims it at each
// new message with Reset instead of allocating one per message, and
// SetMaxLength bounds how large any single variable-length item
// (opaque, string, element count) may claim to be, so a hostile length
// prefix cannot force a huge allocation; n == 0 restores the codec
// default.
type Decoder interface {
	Bool() (bool, error)
	Int32() (int32, error)
	Uint32() (uint32, error)
	Int64() (int64, error)
	Uint64() (uint64, error)
	Float32() (float32, error)
	Float64() (float64, error)
	String() (string, error)
	Bytes() ([]byte, error) // variable-length opaque (aliases input)
	// BytesInto decodes variable-length opaque data, landing it in dst
	// when it fits (the result aliases dst) and in freshly allocated
	// storage otherwise — never truncated. The caller owns the result
	// either way.
	BytesInto(dst []byte) ([]byte, error)
	FixedBytes(n int) ([]byte, error)
	FixedBytesInto(dst []byte) error
	Len() (int, error)
	Remaining() int
	Reset(buf []byte)
	SetMaxLength(n uint32)

	// stringView decodes a string without copying it: the slice aliases
	// the message, under String's bound and checks.
	stringView() ([]byte, error)
	// scalars decodes a run of adjacent scalar leaves with one bounds
	// check: run[0] is the run step, and leaf run[1+i]'s wire bits land
	// in out[i] (a bool as 0 or 1 on XDR, its octet on CDR).
	scalars(run []blockStep, out []uint64) error
	// scratch is the decoder's phase-1 store (see decodeBlock).
	scratch() *scratch
}

// XDRCodec marshals in Sun XDR (RFC 4506).
var XDRCodec Codec = xdrCodec{}

type xdrCodec struct{}

func (xdrCodec) Name() string { return "xdr" }
func (xdrCodec) NewEncoder() Encoder {
	return &xdrEncoder{}
}
func (xdrCodec) NewDecoder(buf []byte) Decoder {
	x := &xdrDecoder{}
	x.d.Reset(buf)
	return x
}

type xdrEncoder struct {
	e xdr.Encoder
}

func (x *xdrEncoder) PutBool(v bool)         { x.e.PutBool(v) }
func (x *xdrEncoder) PutInt32(v int32)       { x.e.PutInt32(v) }
func (x *xdrEncoder) PutUint32(v uint32)     { x.e.PutUint32(v) }
func (x *xdrEncoder) PutInt64(v int64)       { x.e.PutInt64(v) }
func (x *xdrEncoder) PutUint64(v uint64)     { x.e.PutUint64(v) }
func (x *xdrEncoder) PutFloat32(v float32)   { x.e.PutFloat32(v) }
func (x *xdrEncoder) PutFloat64(v float64)   { x.e.PutFloat64(v) }
func (x *xdrEncoder) PutString(v string)     { x.e.PutString(v) }
func (x *xdrEncoder) PutBytes(v []byte)      { x.e.PutOpaque(v) }
func (x *xdrEncoder) PutFixedBytes(v []byte) { x.e.PutFixedOpaque(v) }
func (x *xdrEncoder) PutLen(n int)           { x.e.PutArrayLen(n) }
func (x *xdrEncoder) Bytes() []byte          { return x.e.Bytes() }
func (x *xdrEncoder) Reset()                 { x.e.Reset() }
func (x *xdrEncoder) ResetArena(dst []byte)  { x.e.ResetTo(dst) }

// xdrDecoder holds the xdr.Decoder by value so one allocation covers
// both the interface box and the decoder state.
type xdrDecoder struct {
	d  xdr.Decoder
	sc scratch
}

func (x *xdrDecoder) Reset(buf []byte)                     { x.d.Reset(buf); x.sc.reset() }
func (x *xdrDecoder) Bool() (bool, error)                  { return x.d.Bool() }
func (x *xdrDecoder) Int32() (int32, error)                { return x.d.Int32() }
func (x *xdrDecoder) Uint32() (uint32, error)              { return x.d.Uint32() }
func (x *xdrDecoder) Int64() (int64, error)                { return x.d.Int64() }
func (x *xdrDecoder) Uint64() (uint64, error)              { return x.d.Uint64() }
func (x *xdrDecoder) Float32() (float32, error)            { return x.d.Float32() }
func (x *xdrDecoder) Float64() (float64, error)            { return x.d.Float64() }
func (x *xdrDecoder) String() (string, error)              { return x.d.String() }
func (x *xdrDecoder) Bytes() ([]byte, error)               { return x.d.Opaque() }
func (x *xdrDecoder) BytesInto(dst []byte) ([]byte, error) { return x.d.OpaqueInto(dst) }
func (x *xdrDecoder) FixedBytes(n int) ([]byte, error)     { return x.d.FixedOpaque(n) }
func (x *xdrDecoder) FixedBytesInto(dst []byte) error      { return x.d.FixedOpaqueInto(dst) }
func (x *xdrDecoder) Len() (int, error)                    { return x.d.ArrayLen() }
func (x *xdrDecoder) Remaining() int                       { return x.d.Remaining() }
func (x *xdrDecoder) SetMaxLength(n uint32)                { x.d.MaxLength = n }
func (x *xdrDecoder) stringView() ([]byte, error)          { return x.d.StringBytes() }
func (x *xdrDecoder) scratch() *scratch                    { return &x.sc }

// scalars reads a run: XDR has no alignment, so its size is fixed.
func (x *xdrDecoder) scalars(run []blockStep, out []uint64) error {
	b, err := x.d.Raw(int(run[0].xdr))
	if err != nil {
		return err
	}
	leaves := run[1:]
	out = out[:len(leaves)]
	for i := range leaves {
		k := leaves[i].leaf
		if k >= leafInt64 {
			out[i] = binary.BigEndian.Uint64(b)
			b = b[8:]
			continue
		}
		v := binary.BigEndian.Uint32(b)
		if k == leafBool && v > 1 {
			return xdr.ErrBadBool
		}
		out[i] = uint64(v)
		b = b[4:]
	}
	return nil
}

// CDRCodec marshals in CORBA CDR, big-endian.
var CDRCodec Codec = cdrCodec{order: cdr.BigEndian, name: "cdr"}

// CDRCodecLE marshals in CORBA CDR, little-endian — both byte orders
// are legal CDR, flagged in a real GIOP header; here the connection's
// codec choice plays that role.
var CDRCodecLE Codec = cdrCodec{order: cdr.LittleEndian, name: "cdr-le"}

type cdrCodec struct {
	order cdr.ByteOrder
	name  string
}

func (c cdrCodec) Name() string { return c.name }
func (c cdrCodec) NewEncoder() Encoder {
	return &cdrEncoder{e: cdr.NewEncoder(c.order)}
}
func (c cdrCodec) NewDecoder(buf []byte) Decoder {
	d := &cdrDecoder{d: *cdr.NewDecoder(nil, c.order), big: c.order == cdr.BigEndian}
	d.d.Reset(buf)
	return d
}

type cdrEncoder struct {
	e *cdr.Encoder
}

func (c *cdrEncoder) PutBool(v bool)         { c.e.PutBool(v) }
func (c *cdrEncoder) PutInt32(v int32)       { c.e.PutInt32(v) }
func (c *cdrEncoder) PutUint32(v uint32)     { c.e.PutUint32(v) }
func (c *cdrEncoder) PutInt64(v int64)       { c.e.PutInt64(v) }
func (c *cdrEncoder) PutUint64(v uint64)     { c.e.PutUint64(v) }
func (c *cdrEncoder) PutFloat32(v float32)   { c.e.PutUint32(f32bits(v)) }
func (c *cdrEncoder) PutFloat64(v float64)   { c.e.PutUint64(f64bits(v)) }
func (c *cdrEncoder) PutString(v string)     { c.e.PutString(v) }
func (c *cdrEncoder) PutBytes(v []byte)      { c.e.PutOctetSeq(v) }
func (c *cdrEncoder) PutFixedBytes(v []byte) { c.e.PutFixedOctets(v) }
func (c *cdrEncoder) PutLen(n int)           { c.e.PutSeqLen(n) }
func (c *cdrEncoder) Bytes() []byte          { return c.e.Bytes() }
func (c *cdrEncoder) Reset()                 { c.e.Reset() }
func (c *cdrEncoder) ResetArena(dst []byte)  { c.e.ResetTo(dst) }

// cdrDecoder holds the cdr.Decoder by value so one allocation covers
// both the interface box and the decoder state.
type cdrDecoder struct {
	d   cdr.Decoder
	big bool
	sc  scratch
}

func (c *cdrDecoder) Reset(buf []byte)        { c.d.Reset(buf); c.sc.reset() }
func (c *cdrDecoder) Bool() (bool, error)     { return c.d.Bool() }
func (c *cdrDecoder) Int32() (int32, error)   { return c.d.Int32() }
func (c *cdrDecoder) Uint32() (uint32, error) { return c.d.Uint32() }
func (c *cdrDecoder) Int64() (int64, error)   { return c.d.Int64() }
func (c *cdrDecoder) Uint64() (uint64, error) { return c.d.Uint64() }
func (c *cdrDecoder) Float32() (float32, error) {
	v, err := c.d.Uint32()
	return f32frombits(v), err
}
func (c *cdrDecoder) Float64() (float64, error) {
	v, err := c.d.Uint64()
	return f64frombits(v), err
}
func (c *cdrDecoder) String() (string, error) { return c.d.String() }
func (c *cdrDecoder) Bytes() ([]byte, error)  { return c.d.OctetSeq() }
func (c *cdrDecoder) BytesInto(dst []byte) ([]byte, error) {
	b, err := c.d.OctetSeq()
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
func (c *cdrDecoder) FixedBytes(n int) ([]byte, error) { return c.d.FixedOctets(n) }
func (c *cdrDecoder) FixedBytesInto(dst []byte) error  { return c.d.FixedOctetsInto(dst) }
func (c *cdrDecoder) Len() (int, error)                { return c.d.SeqLen() }
func (c *cdrDecoder) Remaining() int                   { return c.d.Remaining() }
func (c *cdrDecoder) SetMaxLength(n uint32)            { c.d.MaxLength = n }
func (c *cdrDecoder) stringView() ([]byte, error)      { return c.d.StringBytes() }
func (c *cdrDecoder) scratch() *scratch                { return &c.sc }

// scalars reads a run: each leaf aligns to its size from the message
// start, so the run's size depends on where it starts modulo 8.
func (c *cdrDecoder) scalars(run []blockStep, out []uint64) error {
	at := c.d.Offset()
	b, err := c.d.Raw(int(run[0].cdr[at&7]))
	if err != nil {
		return err
	}
	leaves := run[1:]
	out = out[:len(leaves)]
	p := 0
	for i := range leaves {
		switch k := leaves[i].leaf; {
		case k == leafBool:
			out[i] = uint64(b[p])
			p++
		case k >= leafInt64:
			p += -(at + p) & 7
			if c.big {
				out[i] = binary.BigEndian.Uint64(b[p:])
			} else {
				out[i] = binary.LittleEndian.Uint64(b[p:])
			}
			p += 8
		default:
			p += -(at + p) & 3
			if c.big {
				out[i] = uint64(binary.BigEndian.Uint32(b[p:]))
			} else {
				out[i] = uint64(binary.LittleEndian.Uint32(b[p:]))
			}
			p += 4
		}
	}
	return nil
}
