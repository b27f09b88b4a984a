package cdr

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAlignmentPads(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.PutOctet(0xAA)
	e.PutUint32(1) // must pad 3 bytes first
	want := []byte{0xAA, 0, 0, 0, 0, 0, 0, 1}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("wire = %x, want %x", e.Bytes(), want)
	}
	d := NewDecoder(e.Bytes(), BigEndian)
	o, _ := d.Octet()
	v, err := d.Uint32()
	if err != nil || o != 0xAA || v != 1 {
		t.Fatalf("decode = %x %d %v", o, v, err)
	}
}

func TestUint64Alignment(t *testing.T) {
	e := NewEncoder(LittleEndian)
	e.PutUint32(7)
	e.PutUint64(0x0102030405060708)
	if len(e.Bytes()) != 16 {
		t.Fatalf("len = %d, want 16 (4 data + 4 pad + 8)", len(e.Bytes()))
	}
	d := NewDecoder(e.Bytes(), LittleEndian)
	v32, _ := d.Uint32()
	v64, err := d.Uint64()
	if err != nil || v32 != 7 || v64 != 0x0102030405060708 {
		t.Fatalf("decode = %d %x %v", v32, v64, err)
	}
}

func TestBothByteOrders(t *testing.T) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		e := NewEncoder(order)
		e.PutUint32(0xDEADBEEF)
		e.PutUint64(0xfffffffffffffffb) // int64 -5
		d := NewDecoder(e.Bytes(), order)
		v32, _ := d.Uint32()
		v64, err := d.Uint64()
		if err != nil || v32 != 0xDEADBEEF || int64(v64) != -5 {
			t.Errorf("%v: decode = %x %d %v", order, v32, v64, err)
		}
	}
}

func TestLittleEndianWire(t *testing.T) {
	e := NewEncoder(LittleEndian)
	e.PutUint32(0x01020304)
	if !bytes.Equal(e.Bytes(), []byte{4, 3, 2, 1}) {
		t.Fatalf("wire = %x", e.Bytes())
	}
}

func TestStringWire(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.PutString("hi")
	want := []byte{0, 0, 0, 3, 'h', 'i', 0}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("wire = %x, want %x", e.Bytes(), want)
	}
	s, err := NewDecoder(e.Bytes(), BigEndian).String()
	if err != nil || s != "hi" {
		t.Fatalf("String = %q, %v", s, err)
	}
}

func TestStringValidation(t *testing.T) {
	// Missing NUL terminator.
	bad := []byte{0, 0, 0, 2, 'h', 'i'}
	if _, err := NewDecoder(bad, BigEndian).String(); err != ErrBadString {
		t.Errorf("err = %v, want ErrBadString", err)
	}
	// Zero length word is invalid (must count the NUL).
	bad = []byte{0, 0, 0, 0}
	if _, err := NewDecoder(bad, BigEndian).String(); err != ErrBadString {
		t.Errorf("err = %v, want ErrBadString", err)
	}
}

func TestOctetSeq(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.PutOctetSeq([]byte{9, 8, 7})
	got, err := NewDecoder(e.Bytes(), BigEndian).OctetSeq()
	if err != nil || !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("OctetSeq = %v, %v", got, err)
	}
}

func TestShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{0, 0}, BigEndian)
	if _, err := d.Uint32(); err != ErrShortBuffer {
		t.Errorf("Uint32 err = %v", err)
	}
	d = NewDecoder([]byte{0, 0, 0, 9, 'x'}, BigEndian)
	if _, err := d.OctetSeq(); err != ErrShortBuffer {
		t.Errorf("OctetSeq err = %v", err)
	}
}

func TestLengthLimit(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.PutUint32(1 << 30)
	d := NewDecoder(e.Bytes(), BigEndian)
	d.MaxLength = 1024
	if _, err := d.SeqLen(); err == nil {
		t.Error("expected overflow error")
	}
}

// Property: a mixed record round-trips in both byte orders, and
// decoding with the opposite order never silently succeeds with the
// same multi-byte values (for values whose byte-swap differs).
func TestQuickRoundTrip(t *testing.T) {
	f := func(o byte, u32 uint32, i64 int64, s string, seq []byte, le bool) bool {
		order := BigEndian
		if le {
			order = LittleEndian
		}
		e := NewEncoder(order)
		e.PutOctet(o)
		e.PutUint32(u32)
		e.PutUint64(uint64(i64))
		e.PutString(s)
		e.PutOctetSeq(seq)
		d := NewDecoder(e.Bytes(), order)
		go1, _ := d.Octet()
		g32, _ := d.Uint32()
		g64, _ := d.Uint64()
		gs, _ := d.String()
		gseq, err := d.OctetSeq()
		return err == nil && go1 == o && g32 == u32 &&
			int64(g64) == i64 && gs == s && bytes.Equal(gseq, seq) && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: encoded primitives always land on their natural
// alignment boundary.
func TestQuickAlignmentInvariant(t *testing.T) {
	f := func(pre []byte, u32 uint32, u64 uint64) bool {
		if len(pre) > 32 {
			pre = pre[:32]
		}
		e := NewEncoder(BigEndian)
		for _, b := range pre {
			e.PutOctet(b)
		}
		before := len(e.Bytes())
		e.PutUint32(u32)
		// The 4 value bytes start at an offset divisible by 4.
		off32 := len(e.Bytes()) - 4
		e.PutUint64(u64)
		off64 := len(e.Bytes()) - 8
		return off32%4 == 0 && off64%8 == 0 && off32 >= before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderExhaustionEverywhere(t *testing.T) {
	// Each primitive must fail cleanly at every truncation point.
	e := NewEncoder(BigEndian)
	e.PutOctet(1)
	e.PutUint32(3)
	e.PutUint64(4)
	e.PutString("abc")
	wire := e.Bytes()
	for n := 0; n < len(wire); n++ {
		d := NewDecoder(wire[:n], BigEndian)
		_, err1 := d.Octet()
		_, err3 := d.Uint32()
		_, err4 := d.Uint64()
		_, err5 := d.String()
		if err1 == nil && err3 == nil && err4 == nil && err5 == nil {
			t.Fatalf("prefix %d decoded fully without error", n)
		}
	}
	// The full buffer decodes.
	d := NewDecoder(wire, BigEndian)
	if _, err := d.Octet(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Uint32(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Uint64(); err != nil {
		t.Fatal(err)
	}
	if s, err := d.String(); err != nil || s != "abc" {
		t.Fatalf("string = %q, %v", s, err)
	}
}

func TestAlignSkipsExactPadding(t *testing.T) {
	d := NewDecoder([]byte{0xAA, 0, 0, 0, 0, 0, 0, 7}, BigEndian)
	if _, err := d.Octet(); err != nil {
		t.Fatal(err)
	}
	if err := d.Align(4); err != nil {
		t.Fatal(err)
	}
	v, err := d.Uint32()
	if err != nil || v != 7 {
		t.Fatalf("aligned word = %d, %v", v, err)
	}
	// Align at end of buffer with leftover pad requirement fails.
	d2 := NewDecoder([]byte{1}, BigEndian)
	if _, err := d2.Octet(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Align(4); err == nil {
		// Align to 4 from offset 1 with no bytes left: must fail...
		// unless offset already aligned; offset is 1, so error.
		t.Fatal("align past end should fail")
	}
}

func TestStringLengthLimit(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.PutUint32(1 << 30)
	d := NewDecoder(e.Bytes(), BigEndian)
	d.MaxLength = 64
	if _, err := d.String(); err == nil {
		t.Fatal("oversized string length should fail")
	}
	dd := NewDecoder(e.Bytes(), BigEndian)
	dd.MaxLength = 64
	if _, err := dd.OctetSeq(); err == nil {
		t.Fatal("oversized seq length should fail")
	}
}

func TestOrderAccessors(t *testing.T) {
	if BigEndian.String() != "big-endian" || LittleEndian.String() != "little-endian" {
		t.Fatal("order strings")
	}
}
