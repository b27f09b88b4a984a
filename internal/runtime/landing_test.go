package runtime

import (
	"fmt"
	"testing"
	"unsafe"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/ir"
	"flexrpc/internal/pres"
)

// The certificate says what executes. A landing is decided once, in
// resolveLanding, and three things read it: the decode closure
// compileDecode builds, the buffer DecodeReply hands that closure, and
// the certificate. This test drives the public decode paths from the
// certificate's own steps and checks each claim by pointer range, so
// the three cannot drift apart.

const landingIDL = `
	typedef octet md5[16];
	struct rec { long id; sequence<octet> body; md5 sum; string tag; };
	interface Land {
		sequence<octet> bytes_op(in sequence<octet> a, inout sequence<octet> b, out sequence<octet> c);
		md5 fixed_op(in md5 a, inout md5 b, out md5 c);
		string string_op(in string a, inout string b, out string c);
		rec struct_op(in rec a, inout rec b, out rec c);
		sequence<rec> seq_op(in sequence<rec> a, inout sequence<rec> b, out sequence<rec> c);
		long scalar_op(in long a, inout long b, out long c);
	};`

// sampleValue builds a non-empty value of wire type t.
func sampleValue(t *ir.Type) Value {
	switch t.Kind {
	case ir.Int32:
		return int32(7)
	case ir.String:
		return "a string of some length"
	case ir.Bytes:
		return []byte("variable-length payload")
	case ir.FixedBytes:
		return make([]byte, t.Size)
	case ir.Seq:
		return []Value{sampleValue(t.Elem), sampleValue(t.Elem)}
	case ir.Struct:
		vs := make([]Value, len(t.Fields))
		for i, f := range t.Fields {
			vs[i] = sampleValue(f.Type)
		}
		return vs
	}
	panic(fmt.Sprintf("sampleValue: kind %v", t.Kind))
}

// A leaf is the storage behind one byte slice or string reachable
// from a decoded value.
type leaf struct {
	b   []byte
	str bool
}

func leaves(v Value) []leaf {
	switch x := v.(type) {
	case []byte:
		return []leaf{{b: x}}
	case string:
		return []leaf{{b: unsafe.Slice(unsafe.StringData(x), len(x)), str: true}}
	case []Value:
		var out []leaf
		for _, e := range x {
			out = append(out, leaves(e)...)
		}
		return out
	}
	return nil
}

// within reports whether b's storage lies inside region's.
func within(b, region []byte) bool {
	if len(b) == 0 || len(region) == 0 {
		return false
	}
	lo, p := uintptr(unsafe.Pointer(&region[0])), uintptr(unsafe.Pointer(&b[0]))
	return p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(region))
}

func TestCertificateLandingsExecute(t *testing.T) {
	f, err := corba.Parse("land.idl", landingIDL)
	if err != nil {
		t.Fatal(err)
	}
	iface := f.Interface("Land")
	for _, callerAlloc := range []bool{false, true} {
		p := pres.Default(iface, pres.StyleCORBA)
		if callerAlloc {
			for i := range iface.Ops {
				op := &iface.Ops[i]
				p.Op(op.Name).Result().Alloc = pres.AllocCaller
				for _, prm := range op.Params {
					if prm.Dir != ir.In {
						p.Op(op.Name).Param(prm.Name).Alloc = pres.AllocCaller
					}
				}
			}
		}
		for _, codec := range []Codec{XDRCodec, CDRCodec} {
			plan, err := NewPlan(p, codec, nil)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[Landing]int{}
			for _, oc := range plan.Certificate().Ops {
				checkOpLandings(t, fmt.Sprintf("%s caller=%v %s", codec.Name(), callerAlloc, oc.Op),
					plan.Ops[plan.OpIndex(oc.Op)], oc, seen)
			}
			want := []Landing{LandScalar, LandBorrow, LandOwn}
			if callerAlloc {
				want = append(want, LandCaller)
			}
			for _, l := range want {
				if seen[l] == 0 {
					t.Errorf("%s caller=%v: no decode step certified %q; the presentation no longer covers it", codec.Name(), callerAlloc, l)
				}
			}
			if !callerAlloc && seen[LandCaller] != 0 {
				t.Errorf("%s: %d steps certified caller landing without [alloc(caller)]", codec.Name(), seen[LandCaller])
			}
		}
	}
}

// checkOpLandings round-trips one operation through its plan, handing
// DecodeReply a distinct caller buffer for every position, and checks
// every decode step of the certificate against where the decoded
// value's storage actually is.
func checkOpLandings(t *testing.T, ctx string, op *OpPlan, oc OpCert, seen map[Landing]int) {
	t.Helper()
	codec := op.plan.Codec
	n := len(op.Op.Params)
	args, outs := make([]Value, n), make([]Value, n)
	outBufs := make([][]byte, n)
	for i, prm := range op.Op.Params {
		if prm.Dir != ir.Out {
			args[i] = sampleValue(prm.Type)
		}
		if prm.Dir != ir.In {
			outs[i] = sampleValue(prm.Type)
		}
		outBufs[i] = make([]byte, 256)
	}
	retBuf := make([]byte, 256)

	reqEnc, repEnc := codec.NewEncoder(), codec.NewEncoder()
	if err := op.EncodeRequest(reqEnc, args); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if err := op.EncodeReply(repEnc, outs, sampleValue(op.Op.Result)); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	reqFrame, repFrame := reqEnc.Bytes(), repEnc.Bytes()
	gotArgs, err := op.DecodeRequest(codec.NewDecoder(reqFrame))
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	gotOuts, gotRet, err := op.DecodeReply(codec.NewDecoder(repFrame), outBufs, retBuf)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}

	for _, sc := range oc.Steps {
		var got Value
		var frame, callerBuf []byte
		idx := -1
		for i, prm := range op.Op.Params {
			if prm.Name == sc.Param {
				idx = i
			}
		}
		switch {
		case sc.Phase == PhaseReqDecode:
			got, frame = gotArgs[idx], reqFrame
		case sc.Phase == PhaseRepDecode && idx < 0:
			got, frame, callerBuf = gotRet, repFrame, retBuf
		case sc.Phase == PhaseRepDecode:
			got, frame, callerBuf = gotOuts[idx], repFrame, outBufs[idx]
		default:
			continue // encode steps land nothing
		}
		seen[sc.Landing]++
		ls := leaves(got)
		where := fmt.Sprintf("%s %s %s (%s)", ctx, sc.Phase, sc.Param, sc.Type)
		if (sc.Landing == LandScalar) != (len(ls) == 0) {
			t.Errorf("%s: certified %q but decoded %d buffers", where, sc.Landing, len(ls))
		}
		for _, l := range ls {
			inFrame, inCaller := within(l.b, frame), within(l.b, callerBuf)
			ok := false
			switch sc.Landing {
			case LandBorrow: // a string is fresh even inside a borrowed composite
				ok = inFrame != l.str && !inCaller
			case LandCaller:
				ok = inCaller
			case LandOwn:
				ok = !inFrame && !inCaller
			}
			if !ok {
				t.Errorf("%s: certified %q but a %d-byte buffer (string=%v) has frame=%v caller=%v",
					where, sc.Landing, len(l.b), l.str, inFrame, inCaller)
			}
		}
	}
}
