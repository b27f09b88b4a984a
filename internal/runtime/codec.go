package runtime

import (
	"encoding/binary"
	"slices"

	"flexrpc/internal/cdr"
	"flexrpc/internal/xdr"
)

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
	PutUint32(uint32)
	PutUint64(uint64)
	PutString(string)
	PutBytes([]byte)      // variable-length opaque
	PutFixedBytes([]byte) // fixed-length opaque
	PutLen(int)           // sequence/array element count
	Bytes() []byte
	Reset()
	ResetArena(dst []byte)

	// values is the encoder's scratch for a struct or array's expanded
	// elements (see Plan.encode).
	values() *valueStack
	// putScalars encodes a run of adjacent scalar leaves: run[0] is the
	// run step, and leaf run[i]'s value is vals[run[i].dst]. It returns
	// 0, or the first i whose value is not of its leaf's kind.
	putScalars(run []blockStep, vals []Value) int
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
	Uint64() (uint64, error)
	String() (string, error)
	Bytes() ([]byte, error) // variable-length opaque (aliases input)
	FixedBytes(n int) ([]byte, error)
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
	// scratch is the decoder's phase-1 store (see Plan.decode).
	scratch() *scratch
	// minWire is the fewest bytes a value of pr takes on this codec.
	minWire(pr *blockProg) int
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
	e  xdr.Encoder
	vs valueStack
}

func (x *xdrEncoder) PutBool(v bool)         { x.e.PutBool(v) }
func (x *xdrEncoder) PutUint32(v uint32)     { x.e.PutUint32(v) }
func (x *xdrEncoder) PutUint64(v uint64)     { x.e.PutUint64(v) }
func (x *xdrEncoder) PutString(v string)     { x.e.PutString(v) }
func (x *xdrEncoder) PutBytes(v []byte)      { x.e.PutOpaque(v) }
func (x *xdrEncoder) PutFixedBytes(v []byte) { x.e.PutFixedOpaque(v) }
func (x *xdrEncoder) PutLen(n int)           { x.e.PutArrayLen(n) }
func (x *xdrEncoder) Bytes() []byte          { return x.e.Bytes() }
func (x *xdrEncoder) Reset()                 { x.e.Reset() }
func (x *xdrEncoder) ResetArena(dst []byte)  { x.e.ResetTo(dst) }
func (x *xdrEncoder) values() *valueStack    { return &x.vs }

// putScalars writes a run: XDR has no alignment, so its size is fixed.
func (x *xdrEncoder) putScalars(run []blockStep, vals []Value) int {
	b := x.e.Bytes()
	at := len(b)
	b = slices.Grow(b, int(run[0].xdr))[:at+int(run[0].xdr)]
	for i, p := 1, b[at:]; i < len(run); i++ {
		w, ok := leafBits(run[i].leaf, &vals[run[i].dst])
		switch {
		case !ok:
			return i
		case run[i].leaf >= leafInt64:
			binary.BigEndian.PutUint64(p, w)
			p = p[8:]
		default:
			binary.BigEndian.PutUint32(p, uint32(w))
			p = p[4:]
		}
	}
	x.e.SetBytes(b)
	return 0
}

// xdrDecoder holds the xdr.Decoder by value so one allocation covers
// both the interface box and the decoder state.
type xdrDecoder struct {
	d  xdr.Decoder
	sc scratch
}

func (x *xdrDecoder) Reset(buf []byte)                 { x.d.Reset(buf); x.sc.reset() }
func (x *xdrDecoder) Bool() (bool, error)              { return x.d.Bool() }
func (x *xdrDecoder) Int32() (int32, error)            { return x.d.Int32() }
func (x *xdrDecoder) Uint32() (uint32, error)          { return x.d.Uint32() }
func (x *xdrDecoder) Uint64() (uint64, error)          { return x.d.Uint64() }
func (x *xdrDecoder) String() (string, error)          { return x.d.String() }
func (x *xdrDecoder) Bytes() ([]byte, error)           { return x.d.Opaque() }
func (x *xdrDecoder) FixedBytes(n int) ([]byte, error) { return x.d.FixedOpaque(n) }
func (x *xdrDecoder) Len() (int, error)                { return x.d.ArrayLen() }
func (x *xdrDecoder) Remaining() int                   { return x.d.Remaining() }
func (x *xdrDecoder) SetMaxLength(n uint32)            { x.d.MaxLength = n }
func (x *xdrDecoder) stringView() ([]byte, error)      { return x.d.StringBytes() }
func (x *xdrDecoder) scratch() *scratch                { return &x.sc }
func (x *xdrDecoder) minWire(pr *blockProg) int        { return pr.minXDR }

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
	return &cdrEncoder{e: cdr.NewEncoder(c.order), big: c.order == cdr.BigEndian}
}
func (c cdrCodec) NewDecoder(buf []byte) Decoder {
	d := &cdrDecoder{d: *cdr.NewDecoder(nil, c.order), big: c.order == cdr.BigEndian}
	d.d.Reset(buf)
	return d
}

type cdrEncoder struct {
	e   *cdr.Encoder
	big bool
	vs  valueStack
	run []byte
}

func (c *cdrEncoder) PutBool(v bool)         { c.e.PutBool(v) }
func (c *cdrEncoder) PutUint32(v uint32)     { c.e.PutUint32(v) }
func (c *cdrEncoder) PutUint64(v uint64)     { c.e.PutUint64(v) }
func (c *cdrEncoder) PutString(v string)     { c.e.PutString(v) }
func (c *cdrEncoder) PutBytes(v []byte)      { c.e.PutOctetSeq(v) }
func (c *cdrEncoder) PutFixedBytes(v []byte) { c.e.PutFixedOctets(v) }
func (c *cdrEncoder) PutLen(n int)           { c.e.PutSeqLen(n) }
func (c *cdrEncoder) Bytes() []byte          { return c.e.Bytes() }
func (c *cdrEncoder) Reset()                 { c.e.Reset() }
func (c *cdrEncoder) ResetArena(dst []byte)  { c.e.ResetTo(dst) }
func (c *cdrEncoder) values() *valueStack    { return &c.vs }

// putScalars writes a run: each leaf aligns to its size from the
// message start, its padding zeroed, as the decoder's scalars reads it.
// The run is laid out in the encoder's run buffer and appended whole.
func (c *cdrEncoder) putScalars(run []blockStep, vals []Value) int {
	at := len(c.e.Bytes())
	n := int(run[0].cdr[at&7])
	if len(c.run) < n {
		c.run = make([]byte, 2*n)
	}
	b, p := c.run[:n], 0
	for i := 1; i < len(run); i++ {
		k := run[i].leaf
		w, ok := leafBits(k, &vals[run[i].dst])
		switch {
		case !ok:
			return i
		case k == leafBool:
			b[p] = byte(w)
			p++
		case k >= leafInt64:
			pad := -(at + p) & 7
			clear(b[p : p+pad])
			p += pad
			if c.big {
				binary.BigEndian.PutUint64(b[p:], w)
			} else {
				binary.LittleEndian.PutUint64(b[p:], w)
			}
			p += 8
		default:
			pad := -(at + p) & 3
			clear(b[p : p+pad])
			p += pad
			if c.big {
				binary.BigEndian.PutUint32(b[p:], uint32(w))
			} else {
				binary.LittleEndian.PutUint32(b[p:], uint32(w))
			}
			p += 4
		}
	}
	c.e.PutFixedOctets(b)
	return 0
}

// cdrDecoder holds the cdr.Decoder by value so one allocation covers
// both the interface box and the decoder state.
type cdrDecoder struct {
	d   cdr.Decoder
	big bool
	sc  scratch
}

func (c *cdrDecoder) Reset(buf []byte)                 { c.d.Reset(buf); c.sc.reset() }
func (c *cdrDecoder) Bool() (bool, error)              { return c.d.Bool() }
func (c *cdrDecoder) Int32() (int32, error)            { return c.d.Int32() }
func (c *cdrDecoder) Uint32() (uint32, error)          { return c.d.Uint32() }
func (c *cdrDecoder) Uint64() (uint64, error)          { return c.d.Uint64() }
func (c *cdrDecoder) String() (string, error)          { return c.d.String() }
func (c *cdrDecoder) Bytes() ([]byte, error)           { return c.d.OctetSeq() }
func (c *cdrDecoder) FixedBytes(n int) ([]byte, error) { return c.d.FixedOctets(n) }
func (c *cdrDecoder) Len() (int, error)                { return c.d.SeqLen() }
func (c *cdrDecoder) Remaining() int                   { return c.d.Remaining() }
func (c *cdrDecoder) SetMaxLength(n uint32)            { c.d.MaxLength = n }
func (c *cdrDecoder) stringView() ([]byte, error)      { return c.d.StringBytes() }
func (c *cdrDecoder) scratch() *scratch                { return &c.sc }
func (c *cdrDecoder) minWire(pr *blockProg) int        { return pr.minCDR }

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
