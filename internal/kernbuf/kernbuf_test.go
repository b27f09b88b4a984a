package kernbuf

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestCopyToUserAndBack(t *testing.T) {
	var m Meter
	u := NewUserBuffer(16)
	if err := m.CopyToUser(u, 4, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(u.UserView()[4:8], []byte("abcd")) {
		t.Fatalf("user view = %q", u.UserView())
	}
	s := m.Snapshot()
	if s.UserCopies != 1 || s.UserBytes != 4 {
		t.Fatalf("meter = %+v", s)
	}
}

func TestAccessChecks(t *testing.T) {
	var m Meter
	u := NewUserBuffer(8)
	cases := []struct{ off, n int }{
		{-1, 4}, {0, 9}, {5, 4}, {8, 1},
	}
	for _, c := range cases {
		if err := m.CopyToUser(u, c.off, make([]byte, c.n)); !errors.Is(err, ErrFault) {
			t.Errorf("CopyToUser(off=%d,n=%d) err = %v, want EFAULT", c.off, c.n, err)
		}
	}
	// Faults must not be metered.
	if s := m.Snapshot(); s.UserCopies != 0 {
		t.Fatalf("meter after faults = %+v", s)
	}
}

func TestKernelCopyMetering(t *testing.T) {
	var m Meter
	dst := make([]byte, 8)
	n := m.KernelCopy(dst, []byte("12345678"))
	if n != 8 {
		t.Fatalf("n = %d", n)
	}
	s := m.Snapshot()
	if s.KernelCopies != 1 || s.KernelBytes != 8 || s.UserCopies != 0 {
		t.Fatalf("meter = %+v", s)
	}
}

// Property: CopyToUser lands exactly the given bytes at the given
// offset, for every in-bounds range.
func TestQuickUserRoundTrip(t *testing.T) {
	u := NewUserBuffer(256)
	var m Meter
	f := func(data []byte, off uint8) bool {
		if len(data) > 128 {
			data = data[:128]
		}
		o := int(off) % 128
		if err := m.CopyToUser(u, o, data); err != nil {
			return false
		}
		return bytes.Equal(u.UserView()[o:o+len(data)], data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
