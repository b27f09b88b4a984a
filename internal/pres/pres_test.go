package pres

import (
	"strings"
	"testing"

	"flexrpc/internal/ir"
)

// fileIO builds the paper's Figure 3 interface:
//
//	interface FileIO {
//	    sequence<octet> read(in unsigned long count);
//	    void write(in sequence<octet> data);
//	};
func fileIO() *ir.Interface {
	return &ir.Interface{
		Name: "FileIO",
		Ops: []ir.Operation{
			{
				Name:   "read",
				Params: []ir.Param{{Name: "count", Type: ir.Uint32Type, Dir: ir.In}},
				Result: ir.BytesType,
			},
			{
				Name:   "write",
				Params: []ir.Param{{Name: "data", Type: ir.BytesType, Dir: ir.In}},
				Result: ir.VoidType,
			},
		},
	}
}

func TestDefaultCORBAMoveSemantics(t *testing.T) {
	p := Default(fileIO(), StyleCORBA)
	r := p.Op("read").Result()
	if r.Alloc != AllocCallee || r.Dealloc != DeallocAlways {
		t.Fatalf("CORBA result attrs = %+v, want callee-alloc move semantics", r)
	}
	// In parameters default to copy semantics: neither trashable
	// nor preserved.
	w := p.Op("write").Param("data")
	if w.Trashable || w.Preserved {
		t.Fatalf("in-param attrs = %+v, want plain copy semantics", w)
	}
}

func TestDefaultMIGCallerAlloc(t *testing.T) {
	p := Default(fileIO(), StyleMIG)
	r := p.Op("read").Result()
	if r.Alloc != AllocCaller {
		t.Fatalf("MIG result alloc = %v, want caller", r.Alloc)
	}
	if r.Dealloc != DeallocDefault {
		t.Fatalf("MIG result dealloc = %v, want default", r.Dealloc)
	}
}

func TestScalarParamsGetNoAllocAttrs(t *testing.T) {
	p := Default(fileIO(), StyleCORBA)
	c := p.Op("read").Param("count")
	if c.Alloc != AllocAuto || c.Dealloc != DeallocDefault {
		t.Fatalf("scalar attrs = %+v, want zero attrs", c)
	}
}

func TestValidateAcceptsPaperFigure5(t *testing.T) {
	// Figure 5 applies [dealloc(never)] to the read result.
	p := Default(fileIO(), StyleCORBA)
	p.Op("read").Result().Dealloc = DeallocNever
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsUnknownOpAndParam(t *testing.T) {
	p := Default(fileIO(), StyleCORBA)
	p.Annotate("bogus")
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v, want unknown-operation error", err)
	}
	p = Default(fileIO(), StyleCORBA)
	p.Op("read").Annotate("nosuch").Trashable = true
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("err = %v, want unknown-parameter error", err)
	}
}

func TestValidateRejectsTrashableOnOut(t *testing.T) {
	p := Default(fileIO(), StyleCORBA)
	p.Op("read").Result().Trashable = true
	if err := p.Validate(); err == nil {
		t.Fatal("trashable on a result should be rejected")
	}
}

func TestValidateRejectsTrashablePlusPreserved(t *testing.T) {
	p := Default(fileIO(), StyleCORBA)
	a := p.Op("write").Param("data")
	a.Trashable = true
	a.Preserved = true
	if err := p.Validate(); err == nil {
		t.Fatal("trashable+preserved should be rejected")
	}
}

func TestValidateRejectsAllocOnScalar(t *testing.T) {
	p := Default(fileIO(), StyleCORBA)
	p.Op("read").Param("count").Alloc = AllocCaller
	if err := p.Validate(); err == nil {
		t.Fatal("alloc attribute on scalar should be rejected")
	}
}

func TestValidateRejectsNonUniqueOnNonPort(t *testing.T) {
	p := Default(fileIO(), StyleCORBA)
	p.Op("write").Param("data").NonUnique = true
	if err := p.Validate(); err == nil {
		t.Fatal("nonunique on non-port should be rejected")
	}
}

// Naming is relaxed per endpoint, so it takes every port: one
// unannotated port parameter (or result) keeps unique names.
func TestPortNamingNeedsEveryPortAnnotated(t *testing.T) {
	if !Default(fileIO(), StyleCORBA).PortNaming() {
		t.Fatal("portless interface keeps unique names; want vacuously non-unique")
	}
	caps := &ir.Interface{Name: "Caps", Ops: []ir.Operation{
		{
			Name: "swap",
			Params: []ir.Param{
				{Name: "give", Type: ir.PortType, Dir: ir.In},
				{Name: "also", Type: ir.PortType, Dir: ir.In},
			},
			Result: ir.PortType,
		},
	}}
	p := Default(caps, StyleCORBA)
	steps := []struct {
		annotate string
		want     bool
	}{{"", false}, {"give", false}, {"also", false}, {ResultParam, true}}
	for _, s := range steps {
		if s.annotate != "" {
			p.Op("swap").Param(s.annotate).NonUnique = true
		}
		if nonUnique := p.PortNaming(); nonUnique != s.want {
			t.Errorf("after annotating %q: nonUnique %v, want %v", s.annotate, nonUnique, s.want)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateLengthIs(t *testing.T) {
	iface := &ir.Interface{
		Name: "SysLog",
		Ops: []ir.Operation{{
			Name: "write_msg",
			Params: []ir.Param{
				{Name: "msg", Type: ir.StringType, Dir: ir.In},
				{Name: "length", Type: ir.Int32Type, Dir: ir.In},
			},
			Result: ir.VoidType,
		}},
	}
	p := Default(iface, StyleCORBA)
	p.Op("write_msg").Param("msg").LengthIs = "length"
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Op("write_msg").Param("msg").LengthIs = "missing"
	if err := p.Validate(); err == nil {
		t.Fatal("length_is referencing a missing param should be rejected")
	}
	p.Op("write_msg").Param("msg").LengthIs = "msg" // not an integer
	if err := p.Validate(); err == nil {
		t.Fatal("length_is referencing a non-integer param should be rejected")
	}
}

func TestValidateResultOnVoidOp(t *testing.T) {
	p := Default(fileIO(), StyleCORBA)
	p.Op("write").Annotate(ResultParam).Dealloc = DeallocNever
	if err := p.Validate(); err == nil {
		t.Fatal("annotating the result of a void op should be rejected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := Default(fileIO(), StyleCORBA)
	q := p.Clone()
	q.Op("read").Result().Dealloc = DeallocNever
	q.Trust = TrustFull
	if p.Op("read").Result().Dealloc == DeallocNever {
		t.Error("clone shares ParamAttrs with original")
	}
	if p.Trust != TrustNone {
		t.Error("clone shares trust with original")
	}
	if q.Interface != p.Interface {
		t.Error("clone should share the immutable interface")
	}
}

// Property required by the paper: nothing declared in a presentation
// can affect the contract between client and server. Mutating every
// presentation attribute must leave the interface signature
// unchanged.
func TestPresentationNeverAltersContract(t *testing.T) {
	iface := fileIO()
	before := iface.Signature()
	p := Default(iface, StyleCORBA)
	for i := range p.Ops {
		op := &p.Ops[i]
		for j := range op.Params {
			a := &op.Params[j]
			a.Alloc = AllocCaller
			a.Dealloc = DeallocNever
			a.Special = true
		}
		op.CommStatus = true
	}
	p.Trust = TrustFull
	if got := iface.Signature(); got != before {
		t.Fatalf("contract changed:\nbefore %s\nafter  %s", before, got)
	}
}

func TestTrustOrderingAndStrings(t *testing.T) {
	if !(TrustNone < TrustLeaky && TrustLeaky < TrustFull) {
		t.Fatal("trust levels must be ordered")
	}
	if TrustFull.String() != "leaky,unprotected" {
		t.Fatalf("TrustFull = %q", TrustFull.String())
	}
	if StyleMIG.String() != "mig" || AllocCallee.String() != "callee" || DeallocNever.String() != "never" {
		t.Fatal("stringers disagree with paper vocabulary")
	}
}
