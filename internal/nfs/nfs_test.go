package nfs

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"flexrpc/internal/kernbuf"
	"flexrpc/internal/netsim"
	"flexrpc/internal/xdr"
)

const testFileSize = 64 << 10

// dialShaped connects a fresh client conn to srv over a shaped link.
func dialShaped(t *testing.T, srv *Server, p netsim.LinkParams) net.Conn {
	t.Helper()
	cc, sc := netsim.BufferedPipe(p, 64)
	srv.Start(sc)
	t.Cleanup(func() { cc.Close() })
	return cc
}

// dialTo connects over an unshaped link.
func dialTo(t *testing.T, srv *Server) net.Conn {
	return dialShaped(t, srv, netsim.LinkParams{})
}

func allClients(t *testing.T, srv *Server) []ReadClient {
	t.Helper()
	g1, err := NewGenClient(dialTo(t, srv), false)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenClient(dialTo(t, srv), true)
	if err != nil {
		t.Fatal(err)
	}
	return []ReadClient{
		NewHandClient(dialTo(t, srv), false),
		NewHandClient(dialTo(t, srv), true),
		g1,
		g2,
	}
}

// readWhole reads the entire exported file via 8K reads.
func readWhole(t *testing.T, c ReadClient) *kernbuf.UserBuffer {
	t.Helper()
	ub := kernbuf.NewUserBuffer(testFileSize)
	off := uint32(0)
	for off < testFileSize {
		n, err := c.ReadAt(ub, int(off), off, MaxData)
		if err != nil {
			t.Fatalf("%s: ReadAt(%d): %v", c.Name(), off, err)
		}
		if n == 0 {
			break
		}
		off += uint32(n)
	}
	return ub
}

// The central correctness claim of Figure 2: all four stub variants
// deliver identical file contents to user space.
func TestAllVariantsDeliverIdenticalData(t *testing.T) {
	srv := NewServer(testFileSize)
	for _, c := range allClients(t, srv) {
		ub := readWhole(t, c)
		if !bytes.Equal(ub.UserView(), srv.FileData()) {
			t.Errorf("%s: user buffer does not match the exported file", c.Name())
		}
	}
}

// The copy counts are the experiment's mechanism: conventional = one
// extra kernel-to-user crossing per read plus an intermediate
// buffer; user-buffer presentation = exactly one crossing and no
// intermediate.
func TestCopyCounts(t *testing.T) {
	srv := NewServer(testFileSize)
	reads := uint64(testFileSize / MaxData)

	for _, c := range allClients(t, srv) {
		readWhole(t, c)
		m := c.Stats().Meter
		if m.UserCopies != reads {
			t.Errorf("%s: user copies = %d, want %d", c.Name(), m.UserCopies, reads)
		}
		if m.UserBytes != testFileSize {
			t.Errorf("%s: user bytes = %d, want %d", c.Name(), m.UserBytes, testFileSize)
		}
	}

	// The hand-coded conventional client meters its intermediate
	// kernel copies explicitly.
	hc := NewHandClient(dialTo(t, srv), false)
	readWhole(t, hc)
	if m := hc.Stats().Meter; m.KernelCopies != reads || m.KernelBytes != testFileSize {
		t.Errorf("hand/conventional kernel copies = %+v, want %d", m, reads)
	}
	hs := NewHandClient(dialTo(t, srv), true)
	readWhole(t, hs)
	if m := hs.Stats().Meter; m.KernelCopies != 0 {
		t.Errorf("hand/user-buffer should do no kernel copies, got %d", m.KernelCopies)
	}
}

func TestStatsSplitIsSane(t *testing.T) {
	srv := NewServer(testFileSize)
	c := NewHandClient(dialShaped(t, srv, netsim.LinkParams{Bandwidth: 16 << 20}), false)
	readWhole(t, c)
	s := c.Stats()
	if s.TotalNanos <= 0 || s.NetServerNanos <= 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ClientNanos() <= 0 {
		t.Fatalf("client nanos = %d", s.ClientNanos())
	}
	// Under a bandwidth-shaped link, network dominates.
	if s.NetServerNanos < s.ClientNanos() {
		t.Errorf("expected network-dominated split, got net=%d client=%d",
			s.NetServerNanos, s.ClientNanos())
	}
}

// status reads a reply's leading status word and the attribute words
// that follow it.
func status(d *xdr.Decoder, attr ...*uint32) error {
	stat, err := d.Uint32()
	if err != nil {
		return err
	}
	for _, p := range attr {
		if *p, err = d.Uint32(); err != nil {
			return err
		}
	}
	if stat != StatOK {
		return &ErrServer{Stat: stat}
	}
	return nil
}

// The server answers GETATTR and WRITE too; no client stub calls them
// (Figure 2 only reads), so the test speaks the two procedures by hand.
func TestGetattrAndWrite(t *testing.T) {
	srv := NewServer(testFileSize)
	c := NewHandClient(dialTo(t, srv), false)
	var a Attr
	err := c.rpc.Call(ProcGetattr,
		func(e *xdr.Encoder) { e.PutFixedOpaque(c.fh[:]) },
		func(d *xdr.Decoder) error { return status(d, &a.FileID, &a.Size, &a.BlockSize, &a.MTime) })
	if err != nil || a.Size != testFileSize {
		t.Fatalf("getattr = %+v, %v", a, err)
	}
	// Write, then read back.
	ub := kernbuf.NewUserBuffer(512)
	copy(ub.UserView(), bytes.Repeat([]byte("W"), 512))
	err = c.rpc.Call(ProcWrite,
		func(e *xdr.Encoder) {
			e.PutFixedOpaque(c.fh[:])
			e.PutUint32(0)
			e.PutUint32(1024)
			e.PutUint32(512)
			e.PutOpaque(ub.UserView())
		},
		func(d *xdr.Decoder) error { return status(d) })
	if err != nil {
		t.Fatal(err)
	}
	out := kernbuf.NewUserBuffer(512)
	if _, err := c.ReadAt(out, 0, 1024, 512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.UserView(), ub.UserView()) {
		t.Fatal("write-read mismatch")
	}
}

func TestShortReadAtEOF(t *testing.T) {
	srv := NewServer(1000)
	c := NewHandClient(dialTo(t, srv), true)
	ub := kernbuf.NewUserBuffer(MaxData)
	n, err := c.ReadAt(ub, 0, 900, MaxData)
	if err != nil || n != 100 {
		t.Fatalf("short read = %d, %v", n, err)
	}
	n, err = c.ReadAt(ub, 0, 5000, MaxData)
	if err != nil || n != 0 {
		t.Fatalf("past-EOF read = %d, %v", n, err)
	}
}

func TestBadHandleRejected(t *testing.T) {
	srv := NewServer(1000)
	c := NewHandClient(dialTo(t, srv), false)
	c.fh = FH{} // wrong handle
	ub := kernbuf.NewUserBuffer(64)
	_, err := c.ReadAt(ub, 0, 0, 64)
	var se *ErrServer
	if !errors.As(err, &se) || se.Stat != StatNoEnt {
		t.Fatalf("err = %v, want NFSERR_NOENT", err)
	}
}

func TestSpecialPDLCompiles(t *testing.T) {
	compiled, err := Compile()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := compiled.WithPDL("s.pdl", SpecialPDL)
	if err != nil {
		t.Fatal(err)
	}
	op := sc.Pres.Op("NFSPROC_READ")
	if !op.CommStatus || !op.Result().Special {
		t.Fatalf("presentation = %+v", op)
	}
	// And it cannot have changed the contract.
	if compiled.Iface.Signature() != sc.Iface.Signature() {
		t.Fatal("PDL changed the contract")
	}
}
