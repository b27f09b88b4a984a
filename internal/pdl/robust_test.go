package pdl

import (
	"testing"
	"testing/quick"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
)

func TestQuickApplyNeverPanics(t *testing.T) {
	f, err := corba.Parse("f.idl", `
		interface F { sequence<octet> read(in unsigned long n); };`)
	if err != nil {
		t.Fatal(err)
	}
	base := pres.Default(f.Interface("F"), pres.StyleCORBA)
	prop := func(src string) bool {
		_ = Apply(base.Clone(), "fuzz.pdl", src)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// The base must be untouched no matter what was thrown at Apply.
	if base.Op("read").Result().Dealloc != pres.DeallocAlways {
		t.Fatal("fuzzing mutated the base presentation")
	}
}
