package xdr

import "testing"

// FuzzDecoder drives the decoder over arbitrary bytes: the first
// input byte seeds which primitive is read next, the rest is the
// wire buffer. The decoder must never panic, never hand back more
// bytes than the input holds, and never let Remaining go negative —
// the properties a network-facing unmarshaler lives or dies by.
func FuzzDecoder(f *testing.F) {
	var e Encoder
	e.PutUint32(0xfffffffb) // int32 -5
	e.PutString("hello")
	e.PutOpaque([]byte{1, 2, 3})
	e.PutUint64(1 << 40)
	e.PutBool(true)
	e.PutArrayLen(2)
	f.Add(append([]byte{0}, e.Bytes()...))
	f.Add([]byte{7, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{3, 0, 0, 0, 2, 'h', 'i', 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, wire := data[0], data[1:]
		var d Decoder
		d.Reset(wire)
		d.MaxLength = 1 << 20
		var scratch [16]byte
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
				if b, err = d.Opaque(); err == nil && len(b) > len(wire) {
					t.Fatalf("opaque of %d bytes from %d input bytes", len(b), len(wire))
				}
			case 6:
				_, err = d.Opaque()
			case 7:
				_, err = d.FixedOpaque(8)
			case 8:
				err = d.FixedOpaqueInto(scratch[:4])
			case 9:
				var n int
				if n, err = d.ArrayLen(); err == nil && uint32(n) > d.MaxLength {
					t.Fatalf("array length %d exceeds MaxLength %d", n, d.MaxLength)
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
