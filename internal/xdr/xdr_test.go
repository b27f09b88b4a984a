package xdr

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestPad(t *testing.T) {
	cases := []struct{ n, pad, padded int }{
		{0, 0, 0}, {1, 3, 4}, {2, 2, 4}, {3, 1, 4}, {4, 0, 4},
		{5, 3, 8}, {8, 0, 8}, {9, 3, 12},
	}
	for _, c := range cases {
		if got := Pad(c.n); got != c.pad {
			t.Errorf("Pad(%d) = %d, want %d", c.n, got, c.pad)
		}
		if got := PaddedLen(c.n); got != c.padded {
			t.Errorf("PaddedLen(%d) = %d, want %d", c.n, got, c.padded)
		}
	}
}

func TestUint32Wire(t *testing.T) {
	var e Encoder
	e.PutUint32(0x01020304)
	want := []byte{1, 2, 3, 4}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("wire = %x, want %x", e.Bytes(), want)
	}
	d := NewDecoder(e.Bytes())
	v, err := d.Uint32()
	if err != nil || v != 0x01020304 {
		t.Fatalf("Uint32() = %x, %v", v, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d", d.Remaining())
	}
}

func TestInt32Negative(t *testing.T) {
	var e Encoder
	neg := int32(-2)
	e.PutUint32(uint32(neg))
	if !bytes.Equal(e.Bytes(), []byte{0xff, 0xff, 0xff, 0xfe}) {
		t.Fatalf("wire = %x", e.Bytes())
	}
	v, err := NewDecoder(e.Bytes()).Int32()
	if err != nil || v != -2 {
		t.Fatalf("Int32() = %d, %v", v, err)
	}
}

func TestHyperWire(t *testing.T) {
	var e Encoder
	e.PutUint64(0x0102030405060708)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("wire = %x, want %x", e.Bytes(), want)
	}
	v, err := NewDecoder(e.Bytes()).Uint64()
	if err != nil || v != 0x0102030405060708 {
		t.Fatalf("Uint64() = %x, %v", v, err)
	}
}

func TestBool(t *testing.T) {
	var e Encoder
	e.PutBool(true)
	e.PutBool(false)
	d := NewDecoder(e.Bytes())
	v1, err1 := d.Bool()
	v2, err2 := d.Bool()
	if err1 != nil || err2 != nil || !v1 || v2 {
		t.Fatalf("bools = %v %v, errs %v %v", v1, v2, err1, err2)
	}
}

func TestBoolRejectsGarbage(t *testing.T) {
	d := NewDecoder([]byte{0, 0, 0, 7})
	if _, err := d.Bool(); err != ErrBadBool {
		t.Fatalf("err = %v, want ErrBadBool", err)
	}
}

func TestStringPaddingIsZero(t *testing.T) {
	var e Encoder
	e.PutString("abcde")
	want := []byte{0, 0, 0, 5, 'a', 'b', 'c', 'd', 'e', 0, 0, 0}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("wire = %x, want %x", e.Bytes(), want)
	}
	s, err := NewDecoder(e.Bytes()).String()
	if err != nil || s != "abcde" {
		t.Fatalf("String() = %q, %v", s, err)
	}
}

func TestNonzeroPaddingRejected(t *testing.T) {
	wire := []byte{0, 0, 0, 1, 'x', 0, 0, 1}
	if _, err := NewDecoder(wire).Opaque(); err != ErrBadPadding {
		t.Fatalf("err = %v, want ErrBadPadding", err)
	}
}

func TestOpaqueAliasVsCopy(t *testing.T) {
	var e Encoder
	e.PutOpaque([]byte("hello!!"))
	wire := e.Bytes()

	alias, err := NewDecoder(wire).Opaque()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewDecoder(wire).String()
	if err != nil {
		t.Fatal(err)
	}
	wire[4] = 'H' // mutate the underlying buffer
	if alias[0] != 'H' {
		t.Error("Opaque should alias the input buffer")
	}
	if cp[0] != 'h' {
		t.Error("String should not alias the input buffer")
	}
}

func TestFixedOpaqueInto(t *testing.T) {
	var e Encoder
	e.PutFixedOpaque([]byte("abcdef"))
	dst := make([]byte, 6)
	d := NewDecoder(e.Bytes())
	if err := d.FixedOpaqueInto(dst); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "abcdef" || d.Remaining() != 0 {
		t.Fatalf("dst = %q, remaining = %d", dst, d.Remaining())
	}
}

func TestShortBufferErrors(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	if _, err := d.Uint32(); err != ErrShortBuffer {
		t.Errorf("Uint32 err = %v", err)
	}
	d = NewDecoder([]byte{0, 0, 0, 9, 'x'})
	if _, err := d.Opaque(); err != ErrShortBuffer {
		t.Errorf("Opaque err = %v", err)
	}
	d = NewDecoder([]byte{0, 0, 0, 4})
	if err := d.FixedOpaqueInto(make([]byte, 8)); err != ErrShortBuffer {
		t.Errorf("FixedOpaqueInto err = %v", err)
	}
}

func TestLengthLimit(t *testing.T) {
	var e Encoder
	e.PutUint32(1 << 30) // absurd declared length
	d := NewDecoder(e.Bytes())
	if _, err := d.Opaque(); err == nil {
		t.Error("expected length-overflow error from Opaque")
	}
	d = NewDecoder(e.Bytes())
	d.MaxLength = 16
	if _, err := d.ArrayLen(); err == nil {
		t.Error("expected length-overflow error from ArrayLen")
	}
	// A custom limit that admits the value should succeed.
	var e2 Encoder
	e2.PutUint32(8)
	d = NewDecoder(e2.Bytes())
	d.MaxLength = 16
	if n, err := d.ArrayLen(); err != nil || n != 8 {
		t.Errorf("ArrayLen = %d, %v", n, err)
	}
}

func TestEncoderReset(t *testing.T) {
	var e Encoder
	e.PutUint32(1)
	e.Reset()
	if len(e.Bytes()) != 0 {
		t.Fatalf("len after reset = %d", len(e.Bytes()))
	}
	e.PutUint32(2)
	if !bytes.Equal(e.Bytes(), []byte{0, 0, 0, 2}) {
		t.Fatalf("wire = %x", e.Bytes())
	}
}

// Property: every primitive round-trips, and the encoded length is
// always a multiple of the XDR unit.
func TestQuickRoundTrip(t *testing.T) {
	f := func(i32 int32, u32 uint32, i64 int64, u64 uint64, b bool, f32 float32, f64 float64, op []byte, s string) bool {
		var e Encoder
		e.PutUint32(uint32(i32))
		e.PutUint32(u32)
		e.PutUint64(uint64(i64))
		e.PutUint64(u64)
		e.PutBool(b)
		e.PutUint32(math.Float32bits(f32))
		e.PutUint64(math.Float64bits(f64))
		e.PutOpaque(op)
		e.PutString(s)
		if len(e.Bytes())%UnitSize != 0 {
			return false
		}
		d := NewDecoder(e.Bytes())
		gi32, _ := d.Int32()
		gu32, _ := d.Uint32()
		bi64, _ := d.Uint64()
		gu64, _ := d.Uint64()
		gb, _ := d.Bool()
		bf32, _ := d.Uint32()
		bf64, _ := d.Uint64()
		gi64, gf32, gf64 := int64(bi64), math.Float32frombits(bf32), math.Float64frombits(bf64)
		gop, _ := d.Opaque()
		gs, err := d.String()
		if err != nil || d.Remaining() != 0 {
			return false
		}
		f32ok := gf32 == f32 || (math.IsNaN(float64(f32)) && math.IsNaN(float64(gf32)))
		f64ok := gf64 == f64 || (math.IsNaN(f64) && math.IsNaN(gf64))
		return gi32 == i32 && gu32 == u32 && gi64 == i64 && gu64 == u64 &&
			gb == b && f32ok && f64ok && bytes.Equal(gop, op) && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: FixedOpaque wire size is PaddedLen and decoding returns
// exactly the input bytes.
func TestQuickFixedOpaque(t *testing.T) {
	f := func(b []byte) bool {
		var e Encoder
		e.PutFixedOpaque(b)
		if len(e.Bytes()) != PaddedLen(len(b)) {
			return false
		}
		got, err := NewDecoder(e.Bytes()).FixedOpaque(len(b))
		return err == nil && bytes.Equal(got, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeOpaque1K(b *testing.B) {
	buf := make([]byte, 1024)
	var e Encoder
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.PutOpaque(buf)
	}
}

func BenchmarkDecodeOpaqueInto1K(b *testing.B) {
	var e Encoder
	e.PutFixedOpaque(make([]byte, 1024))
	dst := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		d := NewDecoder(e.Bytes())
		if err := d.FixedOpaqueInto(dst); err != nil {
			b.Fatal(err)
		}
	}
}
