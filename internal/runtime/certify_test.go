package runtime

import (
	"reflect"
	"strings"
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pdl"
	"flexrpc/internal/pres"
)

// The certification tentpole's contract: everything the AllocsPerRun
// gates in alloc_test.go measure dynamically must be provable from
// the compiled step lists alone. These tests derive the certificate
// for the same Hot plan the gates run and check both directions —
// the certificate promises what the gates measure, and the gates
// never measure more than the certificate promises.

func hotCert(t *testing.T) *PlanCert {
	t.Helper()
	plan, err := NewPlan(allocPres(t), XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Certificate()
}

func TestCertificateNullRPCAllocFree(t *testing.T) {
	cert := hotCert(t)
	// The null RPC is certified 0-alloc on both sides — the static
	// form of TestClientNullCallZeroAllocsStatsOff and
	// TestServerNullCallZeroAllocsStatsOff.
	if err := cert.VerifyAllocBound("client", "nop", 0); err != nil {
		t.Fatal(err)
	}
	if err := cert.VerifyAllocBound("server", "nop", 0); err != nil {
		t.Fatal(err)
	}
}

func TestCertificateBorrowPutBound(t *testing.T) {
	cert := hotCert(t)
	oc := cert.OpCert("put")
	if oc == nil {
		t.Fatal("no certificate for put")
	}
	// The 1KB borrow-mode put certifies no server-side allocation —
	// the borrowed slice lands in the Call's byte slot, not in a boxed
	// Value — matching TestServerBorrowPutAllocsStatsOff's gate.
	if oc.ServerAllocBound != 0 {
		t.Fatalf("put server alloc bound = %d, want 0", oc.ServerAllocBound)
	}
	if err := cert.VerifyAllocBound("server", "put", 0); err != nil {
		t.Fatal(err)
	}
	// The client side only appends into the recycled request frame.
	if err := cert.VerifyAllocBound("client", "put", 0); err != nil {
		t.Fatal(err)
	}
	// The decode step that borrows the frame must carry the plan's
	// decode bound.
	var found bool
	for _, sc := range oc.Steps {
		if sc.Phase == PhaseReqDecode && sc.Param == "data" {
			found = true
			if sc.Landing != LandBorrow {
				t.Fatalf("put.data lands %q, want %q", sc.Landing, LandBorrow)
			}
			if sc.Allocs {
				t.Fatal("borrow-mode decode marked allocating")
			}
			if sc.MaxDecode == 0 {
				t.Fatal("variable-length decode step certified without a bound")
			}
		}
	}
	if !found {
		t.Fatal("no req-decode step for put.data in certificate")
	}
}

func TestCertificateBoundsInvariant(t *testing.T) {
	cert := hotCert(t)
	if err := cert.VerifyBounds(); err != nil {
		t.Fatal(err)
	}
}

// attrIDL is a sixteen-field attribute struct, the getattr reply.
const attrIDL = `
	struct attr {
		unsigned long mode; unsigned long nlink; unsigned long uid; unsigned long gid;
		unsigned long long size; unsigned long long used; unsigned long long fsid; unsigned long long fileid;
		unsigned long rdev; unsigned long blksize;
		long long atime; long long mtime; long long ctime;
		boolean immutable; double heat; string name;
	};`

// attrPres is the getattr-shaped interface: the attribute struct as a
// reply and as a request, a scalar sequence reply, and a top-level
// string and owned byte buffer reply.
func attrPres(t testing.TB) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("attr.idl", attrIDL+`
		interface Attr {
			attr getattr(in unsigned long h);
			void setattr(in attr a);
			sequence<unsigned long> list(in unsigned long n);
			string name(in unsigned long h);
			sequence<octet> data(in unsigned long h);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	return pres.Default(f.Interface("Attr"), pres.StyleCORBA)
}

// TestCertificateMatchesGates ties the static and dynamic views
// together: run the same client/server paths the alloc gates run and
// assert the measured allocations never exceed the certified bounds,
// and meet the composite ones exactly.
func TestCertificateMatchesGates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	cert := hotCert(t)

	client := clientStack(t)
	nop := cert.OpCert("nop")
	gateAllocs(t, "certified client null call", float64(nop.ClientAllocBound), func() {
		if _, _, err := client.Invoke("nop", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	})

	disp, plan, body, enc := serverStack(t)
	idx := plan.OpIndex("put")
	put := cert.OpCert("put")
	gateAllocs(t, "certified server 1KB put", float64(put.ServerAllocBound), func() {
		enc.Reset()
		disp.ServeMessage(plan, idx, body, enc)
	})

	// A getattr-shaped reply — every scalar at or above 256 so none
	// would box for free — the same struct as a request, and a
	// 1000-element scalar sequence: each side's decode measures exactly
	// what is certified, so neither a per-field box nor a per-element
	// one can come back unnoticed.
	ap := attrPres(t)
	aplan, err := NewPlan(ap, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	attr := []Value{uint32(0644), uint32(1000), uint32(1000), uint32(1000),
		uint64(1 << 20), uint64(1 << 20), uint64(777), uint64(31337),
		uint32(300), uint32(4096), int64(1 << 40), int64(1 << 41), int64(1 << 42),
		true, 0.5, "a-file-name"}
	acert := aplan.Certificate()
	getattr, setattr, list := acert.OpCert("getattr"), acert.OpCert("setattr"), acert.OpCert("list")
	name, data := acert.OpCert("name"), acert.OpCert("data")
	// One block for the struct's headers, Values and scalars, with the
	// string's bytes in its tail; the request's one scalar argument adds
	// a box on the server. The sequence is its []Value, header and one
	// slab at any length. A top-level string or owned buffer is one
	// block: its header, and its bytes in the tail.
	if getattr.ClientAllocBound != 1 || getattr.ServerAllocBound != 1 || setattr.ServerAllocBound != 1 || list.ClientAllocBound != 3 {
		t.Fatalf("attr bounds: getattr client %d server %d, setattr server %d, list client %d; want 1, 1, 1, 3",
			getattr.ClientAllocBound, getattr.ServerAllocBound, setattr.ServerAllocBound, list.ClientAllocBound)
	}
	if name.ClientAllocBound != 1 || data.ClientAllocBound != 1 {
		t.Fatalf("tail bounds: name client %d, data client %d; want 1, 1", name.ClientAllocBound, data.ClientAllocBound)
	}

	// The work functions set their results unboxed: the Call keeps a
	// value's contents, not its box, so the gate measures the stub alone.
	adisp := NewDispatcher(ap)
	adisp.Handle("getattr", func(c *Call) error { c.SetResult(attr); return nil })
	adisp.Handle("setattr", func(c *Call) error { return nil })
	elems := make([]Value, 1000)
	for i := range elems {
		elems[i] = uint32(256 + i)
	}
	adisp.Handle("list", func(c *Call) error { c.SetResult(elems); return nil })
	fileName, fileData := "a-file-name", []byte("some owned bytes")
	adisp.Handle("name", func(c *Call) error { c.SetResult(fileName); return nil })
	adisp.Handle("data", func(c *Call) error { c.SetResult(fileData); return nil })
	aenc, getBody := XDRCodec.NewEncoder(), []byte{0, 0, 1, 0}
	cannedClient := func(op string) *Client {
		aenc.Reset()
		adisp.ServeMessage(aplan, aplan.OpIndex(op), getBody, aenc)
		c, err := NewClient(ap, XDRCodec, &fixedConn{reply: append([]byte(nil), aenc.Bytes()...)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	aclient, lclient := cannedClient("getattr"), cannedClient("list")
	getArgs := []Value{uint32(256)}
	gateAllocsExact(t, "certified client getattr", getattr.ClientAllocBound, func() {
		if _, ret, err := aclient.Invoke("getattr", getArgs, nil, nil); err != nil || len(ret.([]Value)) != len(attr) {
			t.Fatal(ret, err)
		}
	})
	gateAllocsExact(t, "certified server getattr", getattr.ServerAllocBound, func() {
		aenc.Reset()
		adisp.ServeMessage(aplan, aplan.OpIndex("getattr"), getBody, aenc)
	})
	setEnc := XDRCodec.NewEncoder()
	if err := aplan.Ops[aplan.OpIndex("setattr")].EncodeRequest(setEnc, []Value{attr}); err != nil {
		t.Fatal(err)
	}
	gateAllocsExact(t, "certified server setattr", setattr.ServerAllocBound, func() {
		aenc.Reset()
		adisp.ServeMessage(aplan, aplan.OpIndex("setattr"), setEnc.Bytes(), aenc)
	})
	gateAllocsExact(t, "certified client 1000-element list", list.ClientAllocBound, func() {
		if _, ret, err := lclient.Invoke("list", getArgs, nil, nil); err != nil || len(ret.([]Value)) != len(elems) {
			t.Fatal(ret, err)
		}
	})
	for op, bound := range map[string]int{"name": name.ClientAllocBound, "data": data.ClientAllocBound} {
		c := cannedClient(op)
		gateAllocsExact(t, "certified client "+op, bound, func() {
			if _, ret, err := c.Invoke(op, getArgs, nil, nil); err != nil || ret == nil {
				t.Fatal(ret, err)
			}
		})
	}
}

// TestCertificateMatchesGatesNested measures nested fixed shapes at
// their certified bounds exactly: a struct holding a struct, a long[4],
// a sequence<octet>, a sequence<long> and a string flattens into one
// block, whose tail holds the two strings' bytes and the owned octets,
// so its reply costs the block and the long sequence's backing and
// slab; an unsigned long[8] reply is its block alone.
func TestCertificateMatchesGatesNested(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	f, err := corba.Parse("nest.idl", `
		struct inner { unsigned long id; string tag; };
		typedef long quad[4];
		struct outer { inner in; quad q; sequence<octet> data; sequence<long> ids; string name; };
		typedef unsigned long eight[8];
		interface Nest {
			outer get(in unsigned long h);
			eight words(in unsigned long h);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	p := pres.Default(f.Interface("Nest"), pres.StyleCORBA)
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cert := plan.Certificate()
	get, words := cert.OpCert("get"), cert.OpCert("words")
	if get.ClientAllocBound != 3 || words.ClientAllocBound != 1 {
		t.Fatalf("nested bounds: get client %d, words client %d; want 3, 1", get.ClientAllocBound, words.ClientAllocBound)
	}
	replies := map[string]Value{
		"get": []Value{[]Value{uint32(300), "a-tag"},
			[]Value{int32(1000), int32(-1000), int32(1 << 20), int32(-1 << 20)},
			[]byte("octets"), []Value{int32(300), int32(-300), int32(1 << 30)}, "a-name"},
		"words": []Value{uint32(300), uint32(301), uint32(302), uint32(303),
			uint32(304), uint32(305), uint32(306), uint32(1 << 31)},
	}
	disp := NewDispatcher(p)
	for op, reply := range replies {
		disp.Handle(op, func(c *Call) error { c.SetResult(reply); return nil })
	}
	args := []Value{uint32(256)}
	for op, bound := range map[string]int{"get": get.ClientAllocBound, "words": words.ClientAllocBound} {
		enc := XDRCodec.NewEncoder()
		disp.ServeMessage(plan, plan.OpIndex(op), []byte{0, 0, 1, 0}, enc)
		c, err := NewClient(p, XDRCodec, &fixedConn{reply: enc.Bytes()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ret, err := c.Invoke(op, args, nil, nil); err != nil || !reflect.DeepEqual(ret, replies[op]) {
			t.Fatalf("%s returns %v, %v; want %v", op, ret, err, replies[op])
		}
		gateAllocsExact(t, "certified client "+op, bound, func() {
			if _, _, err := c.Invoke(op, args, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// gateAllocsExact is gateAllocs for a certified bound the path must
// meet exactly: a certificate that over-counts fails as loudly as one
// that under-counts.
func gateAllocsExact(t *testing.T, what string, bound int, fn func()) {
	t.Helper()
	fn()
	if allocs := testing.AllocsPerRun(200, fn); allocs != float64(bound) {
		t.Fatalf("%s allocates %.1f times per call, certified %d", what, allocs, bound)
	}
}

// TestCertificateCallerBufferLanding pins the [alloc(caller)] reply
// landing: the compiled step certifies LandCaller, the paper's figure-9
// caller-buffer optimization. The bytes land in the caller's buffer, so
// the step's one allocation is the boxed slice header — counted in the
// client bound, and so marked on the step.
func TestCertificateCallerBufferLanding(t *testing.T) {
	f, err := corba.Parse("fetch.idl", `
		interface Fetch {
		    sequence<octet> read(in unsigned long count);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	p := pres.Default(f.Interface("Fetch"), pres.StyleCORBA)
	if err := pdl.Apply(p, "fetch.pdl", "interface Fetch {\n    read([alloc(caller)] return);\n};\n"); err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cert := plan.Certificate()
	oc := cert.OpCert("read")
	if oc == nil {
		t.Fatal("no certificate for read")
	}
	var landed bool
	for _, sc := range oc.Steps {
		if sc.Phase == PhaseRepDecode && sc.Param == "return" {
			landed = true
			if sc.Landing != LandCaller {
				t.Fatalf("read.return lands %q, want %q", sc.Landing, LandCaller)
			}
			if !sc.Allocs || oc.ClientAllocBound != 1 {
				t.Fatalf("caller-buffer landing: allocs %v, client bound %d; want the boxed header's 1", sc.Allocs, oc.ClientAllocBound)
			}
		}
	}
	if !landed {
		t.Fatal("no rep-decode step for read.return in certificate")
	}
}

// TestCertificateAllocsMatchBounds: a step's Allocs and its side's
// bound are one model (decodeCost), so every decode step is marked
// allocating exactly when it costs an allocation, and a nonzero bound
// always has a marked step for VerifyAllocBound to name.
func TestCertificateAllocsMatchBounds(t *testing.T) {
	plan, err := NewPlan(richPres(t), XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cert := plan.Certificate()
	for i, op := range plan.Ops {
		oc := &cert.Ops[i]
		k := 0 // oc.Steps lists the four phases in this order
		for _, steps := range [][]step{op.reqEnc, op.reqDec, op.repEnc, op.repDec} {
			for _, st := range steps {
				sc := oc.Steps[k]
				k++
				if sc.Phase != PhaseReqDecode && sc.Phase != PhaseRepDecode {
					continue
				}
				typ := op.Op.Result
				if st.arg >= 0 {
					typ = op.Op.Params[st.arg].Type
				}
				cost := 0
				if st.borrow == nil {
					cost = decodeCost(typ, st.landing)
				}
				if sc.Allocs != (cost > 0) {
					t.Errorf("%s.%s %s: allocs %v, but the step costs %d", oc.Op, sc.Param, sc.Phase, sc.Allocs, cost)
				}
			}
		}
		for side, bound := range map[string]int{"client": oc.ClientAllocBound, "server": oc.ServerAllocBound} {
			if bound == 0 {
				continue
			}
			if err := cert.VerifyAllocBound(side, oc.Op, bound-1); err == nil || !strings.Contains(err.Error(), "step on") {
				t.Errorf("%s.%s certifies %d %s-side allocations, but VerifyAllocBound names no step: %v", cert.Interface, oc.Op, bound, side, err)
			}
		}
	}
}

func TestCertificateMarshalStable(t *testing.T) {
	cert := hotCert(t)
	a, err := cert.Render()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := cert.Render()
	if string(a) != string(b) {
		t.Fatal("certificate rendering is not deterministic")
	}
	for _, want := range []string{`"interface": "Hot"`, `"codec": "xdr"`, `"op": "nop"`, `"op": "put"`} {
		if !strings.Contains(string(a), want) {
			t.Fatalf("certificate missing %s:\n%s", want, a)
		}
	}
}
