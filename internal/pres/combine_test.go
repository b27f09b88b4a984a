package pres

import (
	"bytes"
	"fmt"
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/ir"
)

// Negotiation matrix tests (paper §4.4.1 and §4.4.2).
func TestNegotiateIn(t *testing.T) {
	mk := func(trash, preserve bool) *ParamAttrs {
		return &ParamAttrs{Trashable: trash, Preserved: preserve}
	}
	cases := []struct {
		client, server *ParamAttrs
		want           InSemantics
	}{
		{mk(false, false), mk(false, false), InCopy},
		{mk(true, false), mk(false, false), InBorrow},
		{mk(false, false), mk(false, true), InBorrow},
		{mk(true, false), mk(false, true), InBorrow},
	}
	for i, c := range cases {
		if got := negotiateIn(c.client, c.server); got != c.want {
			t.Errorf("case %d: %v, want %v", i, got, c.want)
		}
	}
}

func TestNegotiateOut(t *testing.T) {
	mk := func(a AllocPolicy) *ParamAttrs { return &ParamAttrs{Alloc: a} }
	cases := []struct {
		client, server AllocPolicy
		want           OutSemantics
	}{
		{AllocAuto, AllocAuto, OutStubAlloc},
		{AllocAuto, AllocCallee, OutServerBuffer},
		{AllocCaller, AllocAuto, OutCallerBuffer},
		{AllocCaller, AllocCallee, OutCopy},
		// A server declaring caller-alloc defers to the caller.
		{AllocCaller, AllocCaller, OutCallerBuffer},
		{AllocAuto, AllocCaller, OutStubAlloc},
	}
	for i, c := range cases {
		if got := negotiateOut(mk(c.client), mk(c.server)); got != c.want {
			t.Errorf("case %d (%v/%v): %v, want %v", i, c.client, c.server, got, c.want)
		}
	}
}

// BenchmarkNegotiation measures the semantics computation of §4.4 in
// isolation — the paper: "even with the current 'dumb' implementation,
// we found the additional overhead of this computation to be
// negligible." Combine runs it once per parameter, at bind.
func BenchmarkNegotiation(b *testing.B) {
	client := &ParamAttrs{Trashable: true}
	server := &ParamAttrs{Alloc: AllocCallee}
	for i := 0; i < b.N; i++ {
		_ = negotiateIn(client, server)
		_ = negotiateOut(client, server)
	}
}

// fuzzIDL is the conformance interface plus one port-carrying
// operation, so that the naming bit has something to decide.
const fuzzIDL = `
	interface Conf {
	    long add(in long a, in long b);
	    sequence<octet> concat(in sequence<octet> a, in sequence<octet> b);
	    void exchange(inout sequence<octet> data, out unsigned long sum);
	    sequence<octet> stamp(in sequence<octet> data);
	    long bump(in long n);
	    void fail(in string msg);
	    void hang();
	    Object grant(in Object right, in long n);
	};`

// The §4.4 tables, written out: in parameters by (client [trashable],
// server [preserved]), out parameters by (client alloc, server alloc).
var (
	inTable = map[[2]bool]InSemantics{
		{false, false}: InCopy, {true, false}: InBorrow,
		{false, true}: InBorrow, {true, true}: InBorrow,
	}
	outTable = map[[2]AllocPolicy]OutSemantics{
		{AllocAuto, AllocAuto}: OutStubAlloc, {AllocAuto, AllocCaller}: OutStubAlloc, {AllocAuto, AllocCallee}: OutServerBuffer,
		{AllocCaller, AllocAuto}: OutCallerBuffer, {AllocCaller, AllocCaller}: OutCallerBuffer, {AllocCaller, AllocCallee}: OutCopy,
		{AllocCallee, AllocAuto}: OutStubAlloc, {AllocCallee, AllocCaller}: OutStubAlloc, {AllocCallee, AllocCallee}: OutServerBuffer,
	}
)

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// declare redeclares iface as one endpoint might: its operations in a
// random order, parameters renamed, now and then a drifted contract,
// and random attributes and trust on top of a default presentation.
func (b *fuzzBytes) declare(iface *ir.Interface) *Presentation {
	ops := make([]ir.Operation, len(iface.Ops))
	copy(ops, iface.Ops)
	for i := len(ops) - 1; i > 0; i-- {
		j := b.next() % (i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	for i := range ops {
		params := make([]ir.Param, len(ops[i].Params))
		copy(params, ops[i].Params)
		for k := range params {
			if b.next()%2 == 1 {
				params[k].Name = fmt.Sprintf("r%d_%d", b.next(), k)
			}
		}
		ops[i].Params = params
	}
	if b.next()%8 == 0 {
		m := b.next() % len(ops)
		switch b.next() % 3 {
		case 0:
			ops[m].Name += "_"
		case 1:
			if len(ops[m].Params) > 0 {
				ops[m].Params[0].Dir = ir.InOut
			}
		case 2:
			ops = append(ops[:m], ops[m+1:]...)
		}
	}
	p := Default(&ir.Interface{Name: iface.Name, Ops: ops}, Style(b.next()%3))
	for i := range ops {
		op := p.Op(ops[i].Name)
		names := []string{ResultParam}
		for _, prm := range ops[i].Params {
			names = append(names, prm.Name)
		}
		for _, name := range names {
			a := op.Param(name)
			bits := b.next()
			if a == nil {
				continue
			}
			if bits&128 != 0 {
				*a = ParamAttrs{}
				continue
			}
			a.Alloc = AllocPolicy(bits % 3)
			a.Dealloc = DeallocPolicy(bits / 3 % 3)
			a.Trashable = bits&16 != 0
			a.Preserved = bits&32 != 0
			a.NonUnique = bits&64 != 0
		}
	}
	p.Trust = Trust(b.next() % 3)
	return p
}

// FuzzCombine pairs two independently declared endpoints of one
// interface and checks the combination against the contract, the
// declarations and the §4.4 tables.
func FuzzCombine(f *testing.F) {
	file, err := corba.Parse("conf.idl", fuzzIDL)
	if err != nil {
		f.Fatal(err)
	}
	iface := file.Interface("Conf")
	f.Add([]byte{})
	f.Add([]byte{7, 1, 5, 3, 2, 0, 4, 6, 1, 1, 9, 1, 200, 1, 17, 1, 33, 2})
	f.Add(bytes.Repeat([]byte{0xA5, 0x13, 0x7F}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		client, server := b.declare(iface), b.declare(iface)
		comb, err := Combine(client, server)
		if differ := client.Interface.Signature() != server.Interface.Signature(); (err != nil) != differ {
			t.Fatalf("contracts differ %v, Combine error %v", differ, err)
		}
		if err != nil {
			return
		}
		rev, err := Combine(server, client)
		if err != nil {
			t.Fatalf("Combine(server, client): %v", err)
		}
		if comb.Trusted != rev.Trusted || comb.NonUnique != rev.NonUnique {
			t.Fatalf("binding bits are not symmetric: %+v vs %+v", comb, rev)
		}
		if comb.Trusted != (client.Trust == TrustFull && server.Trust == TrustFull) {
			t.Fatalf("Trusted %v for trust %v/%v", comb.Trusted, client.Trust, server.Trust)
		}
		if comb.NonUnique != (client.PortNaming() && server.PortNaming()) {
			t.Fatalf("NonUnique %v", comb.NonUnique)
		}
		ci, si := client.Interface, server.Interface
		if len(comb.Ops) != len(ci.Ops) {
			t.Fatalf("%d combined ops for %d", len(comb.Ops), len(ci.Ops))
		}
		for i := range comb.Ops {
			o := &comb.Ops[i]
			cop, sop := &ci.Ops[i], &si.Ops[o.Server]
			if o.Op != cop || o.Index != i || sop.Name != cop.Name || sop.Signature() != cop.Signature() {
				t.Fatalf("client op %d %s paired with server op %d %s", i, cop.Signature(), o.Server, sop.Signature())
			}
			outs := 0
			for k := range o.Params {
				checkParam(t, &o.Params[k], cop.Params[k].Dir,
					attrsWant(client, cop.Name, cop.Params[k].Name), attrsWant(server, sop.Name, sop.Params[k].Name))
				if o.Params[k].IsOut {
					outs++
				}
			}
			if o.Outs != outs {
				t.Fatalf("%s: Outs %d, want %d", cop.Name, o.Outs, outs)
			}
			if cop.HasResult() {
				checkParam(t, &o.Result, ir.Out, attrsWant(client, cop.Name, ResultParam), attrsWant(server, sop.Name, ResultParam))
			} else if o.Result.IsOut {
				t.Fatalf("%s: result paired for an operation without one", cop.Name)
			}
		}
	})
}

// attrsWant is the attribute record a side declared.
func attrsWant(p *Presentation, op, param string) *ParamAttrs {
	return p.Op(op).Param(param)
}

func checkParam(t *testing.T, p *CombinedParam, dir ir.Direction, client, server *ParamAttrs) {
	t.Helper()
	if p.Client != client || p.Server != server {
		t.Fatalf("param paired with the wrong attributes: %+v / %+v, want %+v / %+v", p.Client, p.Server, client, server)
	}
	if p.IsIn != (dir == ir.In || dir == ir.InOut) || p.IsOut != (dir == ir.Out || dir == ir.InOut) {
		t.Fatalf("direction %v read as in %v out %v", dir, p.IsIn, p.IsOut)
	}
	if p.IsIn && (p.In != inTable[[2]bool{client.Trashable, server.Preserved}] || p.Private != client.Trashable) {
		t.Fatalf("in semantics %v private %v for %+v / %+v", p.In, p.Private, client, server)
	}
	if p.IsOut && p.Out != outTable[[2]AllocPolicy{client.Alloc, server.Alloc}] {
		t.Fatalf("out semantics %v for alloc %v / %v", p.Out, client.Alloc, server.Alloc)
	}
}
