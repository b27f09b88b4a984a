package inproc

import (
	"reflect"
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
)

// semIDL has one in parameter of each kind the same-domain program
// treats differently: a scalar and a string, whose copy is the value
// itself, and a byte buffer and a struct, which a copy duplicates.
const semIDL = `
	struct pair { unsigned long a; sequence<octet> b; };
	interface Sem {
		void u(in unsigned long x);
		void s(in string x);
		void b(in sequence<octet> x);
		void t(in pair x);
	};`

func semPres(t *testing.T) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("sem.idl", semIDL)
	if err != nil {
		t.Fatal(err)
	}
	return pres.Default(f.Interface("Sem"), pres.StyleCORBA)
}

// semArg returns a fresh argument for op.
func semArg(op string) runtime.Value {
	switch op {
	case "u":
		return uint32(7)
	case "s":
		return "seven"
	case "b":
		return []byte("seven")
	}
	return []runtime.Value{uint32(7), []byte("seven")}
}

// semWrite is the work function writing into its argument, where the
// value can be written through at all.
func semWrite(v runtime.Value) {
	switch x := v.(type) {
	case []byte:
		x[0] = 'S'
	case []runtime.Value:
		x[0] = uint32(8)
	}
}

// sameBacking reports whether a and b share storage: the same buffer,
// or the same struct value slice.
func sameBacking(a, b runtime.Value) bool {
	switch x := a.(type) {
	case []byte:
		y, ok := b.([]byte)
		return ok && len(x) > 0 && len(y) > 0 && &x[0] == &y[0]
	case []runtime.Value:
		y, ok := b.([]runtime.Value)
		return ok && len(x) > 0 && len(y) > 0 && &x[0] == &y[0]
	}
	return false
}

// TestLentCallSemantics is the in-parameter table of the same-domain
// program: for each kind under default copy, a client [trashable] and a
// server [preserved], what ArgPrivate reports, whether the work
// function's write reaches the caller, and what Arg returns — equal to
// the caller's argument, and the caller's own storage exactly when the
// parameter is borrowed. A scalar or string has no storage to share or
// write: it arrives as the caller's value under every semantics.
func TestLentCallSemantics(t *testing.T) {
	type want struct {
		private, visible, shared bool
	}
	for _, sem := range []struct {
		name string
		set  func(client, server *pres.ParamAttrs)
		buf  want // byte buffer and struct
		val  want // scalar and string
	}{
		{"copy", func(c, s *pres.ParamAttrs) {}, want{true, false, false}, want{true, false, false}},
		{"trashable", func(c, s *pres.ParamAttrs) { c.Trashable = true }, want{true, true, true}, want{true, false, false}},
		{"preserved", func(c, s *pres.ParamAttrs) { s.Preserved = true }, want{false, true, true}, want{false, false, false}},
	} {
		for _, op := range []string{"u", "s", "b", "t"} {
			t.Run(sem.name+"/"+op, func(t *testing.T) {
				cp, sp := semPres(t), semPres(t)
				sem.set(cp.Op(op).Param("x"), sp.Op(op).Param("x"))
				w := sem.val
				if op == "b" || op == "t" {
					w = sem.buf
				}
				var got want
				var seen runtime.Value
				disp := runtime.NewDispatcher(sp)
				arg := semArg(op)
				disp.Handle(op, func(c *runtime.Call) error {
					got.private = c.ArgPrivate(0)
					seen = c.Arg(0)
					got.shared = sameBacking(seen, arg)
					if !reflect.DeepEqual(seen, semArg(op)) {
						t.Errorf("Arg(0) = %v, want %v", seen, semArg(op))
					}
					semWrite(seen)
					return nil
				})
				conn, err := Connect(cp, disp)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := conn.Invoke(op, []runtime.Value{arg}, nil, nil); err != nil {
					t.Fatal(err)
				}
				got.visible = !reflect.DeepEqual(arg, semArg(op))
				if got != w {
					t.Errorf("private, visible, shared = %v, want %v", got, w)
				}
			})
		}
	}
}

// TestLentScalarCopyZeroAllocs: a scalar or a string under default copy
// semantics is its own copy, so the call lends the caller's arguments
// and allocates nothing.
func TestLentScalarCopyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	disp := runtime.NewDispatcher(semPres(t))
	var n int
	disp.Handle("u", func(c *runtime.Call) error {
		n += int(c.Arg(0).(uint32))
		return nil
	})
	disp.Handle("s", func(c *runtime.Call) error {
		n += len(c.Arg(0).(string))
		return nil
	})
	conn, err := Connect(semPres(t), disp)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"u", "s"} {
		args := []runtime.Value{semArg(op)}
		if allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := conn.Invoke(op, args, nil, nil); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", op, allocs)
		}
	}
	if n == 0 {
		t.Fatal("the work functions never ran")
	}
}
