package cdr

import "testing"

// FuzzDecoder drives the CDR decoder over arbitrary bytes in both
// byte orders: the first input byte seeds which primitive is read
// next, the second selects the order, the rest is the wire buffer.
// The decoder must never panic, never hand back more bytes than the
// input holds, and never let Remaining go negative.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder(BigEndian)
	e.PutUint32(0xfffffffb) // int32 -5
	e.PutString("hello")
	e.PutOctetSeq([]byte{1, 2, 3})
	e.PutUint64(1 << 40)
	e.PutBool(true)
	f.Add(append([]byte{0, 0}, e.Bytes()...))
	le := NewEncoder(LittleEndian)
	le.PutUint32(7)
	le.PutString("bye")
	f.Add(append([]byte{3, 1}, le.Bytes()...))
	f.Add([]byte{9, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sel, wire := data[0], data[2:]
		order := BigEndian
		if data[1]&1 == 1 {
			order = LittleEndian
		}
		d := NewDecoder(wire, order)
		d.MaxLength = 1 << 20
		for i := 0; i < 64; i++ {
			before := d.Remaining()
			var err error
			switch (int(sel) + i) % 10 {
			case 0:
				_, err = d.Bool()
			case 1:
				_, err = d.Int32()
			case 2:
				_, err = d.Uint64()
			case 3:
				_, err = d.Uint32()
			case 4:
				var s string
				if s, err = d.String(); err == nil && len(s) > len(wire) {
					t.Fatalf("string of %d bytes from %d input bytes", len(s), len(wire))
				}
			case 5:
				var b []byte
				if b, err = d.OctetSeq(); err == nil && len(b) > len(wire) {
					t.Fatalf("octet seq of %d bytes from %d input bytes", len(b), len(wire))
				}
			case 6:
				_, err = d.Octet()
			case 7:
				_, err = d.FixedOctets(8)
			case 8:
				_, err = d.Uint64()
			case 9:
				var n int
				if n, err = d.SeqLen(); err == nil && uint32(n) > d.MaxLength {
					t.Fatalf("seq length %d exceeds MaxLength %d", n, d.MaxLength)
				}
			}
			if d.Remaining() < 0 || d.Remaining() > before {
				t.Fatalf("Remaining went from %d to %d", before, d.Remaining())
			}
			if err != nil {
				return
			}
		}
	})
}
