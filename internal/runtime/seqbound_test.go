package runtime

import (
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
)

// TestSequenceAllocBytesBounded holds decode amplification — heap bytes
// allocated per wire byte — under a constant for three sequences whose
// elements are small on the wire and large as Values. Each reply is a
// length word and 65536 zero bytes. The length word claims the most
// elements the body can hold at the element's fewest wire bytes, which
// decodes, and then one element per byte, which a hostile peer may send
// and which must fail before it allocates more than the bound.
//
// A struct without members is refused by every front end; it is built
// here by emptying a parsed one, and, having no wire bytes, is held to
// one byte per element.
func TestSequenceAllocBytesBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	f, err := corba.Parse("z.idl", `
		struct e { long x; };
		interface Z {
			sequence<e> empties();
			sequence<sequence<octet>> blobs();
			sequence<boolean> flags();
		};`)
	if err != nil {
		t.Fatal(err)
	}
	iface := f.Interface("Z")
	iface.Ops[0].Result.Elem.Fields = nil
	const body = 1 << 16
	for _, tc := range []struct {
		op    string
		codec Codec
		width int     // the element's fewest wire bytes
		limit float64 // allocated bytes per wire byte
	}{
		{"empties", XDRCodec, 1, 48},
		{"empties", CDRCodec, 1, 48},
		{"blobs", XDRCodec, 4, 12},
		{"blobs", CDRCodec, 4, 12},
		{"flags", XDRCodec, 4, 4},
		{"flags", CDRCodec, 1, 16}, // a CDR boolean is one byte, its Value 16
	} {
		plan, err := NewPlan(pres.Default(iface, pres.StyleCORBA), tc.codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		op := plan.Ops[plan.OpIndex(tc.op)]
		for _, n := range []int{body / tc.width, body} {
			enc := tc.codec.NewEncoder()
			enc.PutLen(n)
			enc.PutFixedBytes(make([]byte, body))
			msg := enc.Bytes()
			dec := plan.NewDecoder(msg)
			_, _, err := op.DecodeReply(dec, nil, nil)
			if fits := n <= body/tc.width; (err == nil) != fits {
				t.Errorf("%s/%s: %d elements in %d bytes: err %v", tc.op, tc.codec.Name(), n, body, err)
			}
			got := bytesPerRun(3, func() {
				dec.Reset(msg)
				_, _, _ = op.DecodeReply(dec, nil, nil)
			})
			// 64 bytes cover the boxes of the sequence's header.
			if float64(got) > tc.limit*float64(len(msg))+64 {
				t.Errorf("%s/%s: %d elements in a %d-byte reply allocate %d bytes (%.1fx), want <= %.0fx",
					tc.op, tc.codec.Name(), n, len(msg), got, float64(got)/float64(len(msg)), tc.limit)
			}
		}
	}
}
