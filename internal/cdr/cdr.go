// Package cdr implements the CORBA Common Data Representation, the
// wire encoding used by CORBA GIOP-style transports. Unlike XDR, CDR
// aligns each primitive to its natural boundary (relative to the
// start of the message) and supports both byte orders, flagged in the
// message header.
package cdr

import (
	"errors"
	"fmt"
)

// ByteOrder selects the encoding byte order of a CDR stream.
type ByteOrder int

const (
	// BigEndian encodes most-significant byte first.
	BigEndian ByteOrder = iota
	// LittleEndian encodes least-significant byte first.
	LittleEndian
)

func (o ByteOrder) String() string {
	if o == LittleEndian {
		return "little-endian"
	}
	return "big-endian"
}

var (
	// ErrShortBuffer is returned when a decode runs off the end of
	// the input.
	ErrShortBuffer = errors.New("cdr: short buffer")
	// ErrBadString is returned when a CDR string is not NUL
	// terminated or has a zero length word.
	ErrBadString = errors.New("cdr: malformed string")
	// ErrLengthOverflow is returned when a sequence declares a
	// length exceeding the decoder's limit.
	ErrLengthOverflow = errors.New("cdr: declared length exceeds limit")
)

// DefaultMaxLength bounds variable-length items during decode.
const DefaultMaxLength = 64 << 20

// An Encoder marshals CDR items. Alignment is computed relative to
// the first encoded byte, as in a GIOP message body.
type Encoder struct {
	buf   []byte
	order ByteOrder
}

// NewEncoder returns an Encoder using the given byte order.
func NewEncoder(order ByteOrder) *Encoder {
	return &Encoder{order: order}
}

// Bytes returns the encoded data.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset discards all encoded data but retains the buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// ResetTo re-aims the encoder at caller-provided storage: encoded
// data is appended into buf's backing array, capped at len(buf), so a
// marshaler can target a transport's fixed buffer (an fbuf arena)
// directly. Encoding past the cap falls back to append's reallocation
// — callers detect that by comparing backing arrays.
func (e *Encoder) ResetTo(buf []byte) { e.buf = buf[:0:len(buf)] }

// Align pads the stream with zero bytes to an n-byte boundary.
// n must be a power of two.
func (e *Encoder) Align(n int) {
	for len(e.buf)%n != 0 {
		e.buf = append(e.buf, 0)
	}
}

// PutOctet encodes a single byte (no alignment).
func (e *Encoder) PutOctet(v byte) { e.buf = append(e.buf, v) }

// PutBool encodes a CDR boolean as one octet.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutOctet(1)
	} else {
		e.PutOctet(0)
	}
}

// PutUint32 encodes an unsigned long, aligned to 4.
func (e *Encoder) PutUint32(v uint32) {
	e.Align(4)
	if e.order == BigEndian {
		e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	} else {
		e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

// PutUint64 encodes an unsigned long long, aligned to 8.
func (e *Encoder) PutUint64(v uint64) {
	e.Align(8)
	if e.order == BigEndian {
		e.buf = append(e.buf,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	} else {
		e.buf = append(e.buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
}

// PutString encodes a CDR string: aligned length word counting the
// terminating NUL, then the bytes, then the NUL.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// PutOctetSeq encodes a sequence<octet>: aligned length word then the
// raw bytes (octets have no alignment).
func (e *Encoder) PutOctetSeq(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// PutFixedOctets encodes a fixed array of octets as raw bytes — no
// length word, no alignment — in one append.
func (e *Encoder) PutFixedOctets(b []byte) {
	e.buf = append(e.buf, b...)
}

// PutSeqLen encodes the element count of a general sequence; the
// caller then encodes each element.
func (e *Encoder) PutSeqLen(n int) { e.PutUint32(uint32(n)) }

// A Decoder unmarshals CDR items.
type Decoder struct {
	buf   []byte
	off   int
	order ByteOrder
	// MaxLength bounds variable-length items; zero means
	// DefaultMaxLength.
	MaxLength uint32
}

// NewDecoder returns a Decoder for buf in the given byte order.
func NewDecoder(buf []byte, order ByteOrder) *Decoder {
	return &Decoder{buf: buf, order: order}
}

// Reset re-aims the decoder at a new buffer, rewinding it and keeping
// the byte order. Hot paths use this to reuse one Decoder across
// messages without allocating.
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

// Align skips pad bytes to an n-byte boundary.
func (d *Decoder) Align(n int) error {
	for d.off%n != 0 {
		if d.off >= len(d.buf) {
			return ErrShortBuffer
		}
		d.off++
	}
	return nil
}

// Octet decodes a single byte.
func (d *Decoder) Octet() (byte, error) {
	if d.Remaining() < 1 {
		return 0, ErrShortBuffer
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

// Bool decodes a CDR boolean octet; any nonzero value is true.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Octet()
	return v != 0, err
}

// Uint32 decodes an unsigned long.
func (d *Decoder) Uint32() (uint32, error) {
	if err := d.Align(4); err != nil {
		return 0, err
	}
	if d.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	b := d.buf[d.off:]
	d.off += 4
	if d.order == BigEndian {
		return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
	}
	return uint32(b[3])<<24 | uint32(b[2])<<16 | uint32(b[1])<<8 | uint32(b[0]), nil
}

// Int32 decodes a long.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes an unsigned long long.
func (d *Decoder) Uint64() (uint64, error) {
	if err := d.Align(8); err != nil {
		return 0, err
	}
	if d.Remaining() < 8 {
		return 0, ErrShortBuffer
	}
	b := d.buf[d.off:]
	d.off += 8
	var v uint64
	if d.order == BigEndian {
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(b[i])
		}
	} else {
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
	}
	return v, nil
}

// String decodes a CDR string, validating the NUL terminator.
func (d *Decoder) String() (string, error) {
	b, err := d.StringBytes()
	return string(b), err
}

// StringBytes decodes a CDR string without copying it: the returned
// slice aliases the decoder's buffer and excludes the NUL terminator,
// which is validated as in String.
func (d *Decoder) StringBytes() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, ErrBadString
	}
	if n > d.maxLen() {
		return nil, fmt.Errorf("%w: %d", ErrLengthOverflow, n)
	}
	if d.Remaining() < int(n) {
		return nil, ErrShortBuffer
	}
	b := d.buf[d.off : d.off+int(n)-1 : d.off+int(n)-1]
	d.off += int(n)
	if d.buf[d.off-1] != 0 {
		return nil, ErrBadString
	}
	return b, nil
}

// Offset is the number of bytes read so far: the position alignment is
// computed from.
func (d *Decoder) Offset() int { return d.off }

// Raw returns the next n bytes as they are, padding included, aliasing
// the decoder's buffer, and consumes them: one bounds check for a run
// of items the caller aligns and decodes itself from Offset.
func (d *Decoder) Raw(n int) ([]byte, error) {
	if n < 0 || d.Remaining() < n {
		return nil, ErrShortBuffer
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b, nil
}

// OctetSeq decodes a sequence<octet>. The returned slice aliases the
// decoder's buffer.
func (d *Decoder) OctetSeq() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > d.maxLen() {
		return nil, fmt.Errorf("%w: %d", ErrLengthOverflow, n)
	}
	if d.Remaining() < int(n) {
		return nil, ErrShortBuffer
	}
	b := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// FixedOctets decodes n raw octets (no length word, no alignment).
// The returned slice aliases the decoder's buffer.
func (d *Decoder) FixedOctets(n int) ([]byte, error) {
	if n < 0 || d.Remaining() < n {
		return nil, ErrShortBuffer
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b, nil
}

// SeqLen decodes a sequence element count.
func (d *Decoder) SeqLen() (int, error) {
	n, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	if n > d.maxLen() {
		return 0, fmt.Errorf("%w: %d", ErrLengthOverflow, n)
	}
	return int(n), nil
}
