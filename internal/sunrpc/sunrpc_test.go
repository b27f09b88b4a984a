package sunrpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"flexrpc/internal/xdr"
)

const (
	testProg = 200100
	testVers = 1
	procEcho = 1
	procAdd  = 2
	procBad  = 3
	procBoom = 4
)

func newTestServer() *Server {
	s := NewServer(testProg, testVers)
	s.Register(procEcho, func(args *xdr.Decoder, reply *xdr.Encoder) error {
		data, err := args.Opaque()
		if err != nil {
			return ErrGarbageArgs
		}
		reply.PutOpaque(data)
		return nil
	})
	s.Register(procAdd, func(args *xdr.Decoder, reply *xdr.Encoder) error {
		a, err := args.Int32()
		if err != nil {
			return ErrGarbageArgs
		}
		b, err := args.Int32()
		if err != nil {
			return ErrGarbageArgs
		}
		reply.PutUint32(uint32(a + b))
		return nil
	})
	s.Register(procBad, func(args *xdr.Decoder, reply *xdr.Encoder) error {
		return ErrGarbageArgs
	})
	s.Register(procBoom, func(args *xdr.Decoder, reply *xdr.Encoder) error {
		return errors.New("internal failure")
	})
	return s
}

// pair starts the test server over an in-memory connection and
// returns a connected client.
func pair(t *testing.T) *Client {
	t.Helper()
	cc, sc := net.Pipe()
	go func() { _ = newTestServer().ServeConn(sc) }()
	t.Cleanup(func() { cc.Close(); sc.Close() })
	return NewClient(cc, testProg, testVers)
}

func TestEchoRoundTrip(t *testing.T) {
	c := pair(t)
	payload := []byte("the quick brown fox")
	var got []byte
	err := c.Call(procEcho,
		func(e *xdr.Encoder) { e.PutOpaque(payload) },
		func(d *xdr.Decoder) error {
			b, err := d.Opaque()
			got = append([]byte(nil), b...)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
}

func TestNullProcedure(t *testing.T) {
	c := pair(t)
	if err := c.Call(0, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialCallsIncrementXID(t *testing.T) {
	c := pair(t)
	for i := int32(0); i < 5; i++ {
		var sum int32
		err := c.Call(procAdd,
			func(e *xdr.Encoder) { e.PutUint32(uint32(i)); e.PutUint32(10) },
			func(d *xdr.Decoder) error {
				var err error
				sum, err = d.Int32()
				return err
			})
		if err != nil {
			t.Fatal(err)
		}
		if sum != i+10 {
			t.Fatalf("sum = %d", sum)
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	c := pair(t)
	var remote *RemoteError

	err := c.Call(procBad, func(e *xdr.Encoder) { e.PutUint32(0) }, nil)
	if !errors.As(err, &remote) || remote.Stat != GarbageArgs {
		t.Errorf("garbage err = %v", err)
	}
	err = c.Call(procBoom, nil, nil)
	if !errors.As(err, &remote) || remote.Stat != SystemErr {
		t.Errorf("system err = %v", err)
	}
	err = c.Call(99, nil, nil)
	if !errors.As(err, &remote) || remote.Stat != ProcUnavail {
		t.Errorf("proc unavail err = %v", err)
	}
}

func TestWrongProgramAndVersion(t *testing.T) {
	// One connection per client: a client's reply reader owns its
	// connection's read side from the first call until Close.
	dial := func(prog, vers uint32) *Client {
		cc, sc := net.Pipe()
		t.Cleanup(func() { cc.Close(); sc.Close() })
		go func() { _ = newTestServer().ServeConn(sc) }()
		return NewClient(cc, prog, vers)
	}

	var remote *RemoteError
	err := dial(testProg+1, testVers).Call(0, nil, nil)
	if !errors.As(err, &remote) || remote.Stat != ProgUnavail {
		t.Fatalf("prog err = %v", err)
	}
	err = dial(testProg, testVers+7).Call(0, nil, nil)
	if !errors.As(err, &remote) || remote.Stat != ProgMismatch {
		t.Fatalf("vers err = %v", err)
	}
}

func TestConcurrentCallersSerialize(t *testing.T) {
	c := pair(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int32) {
			defer wg.Done()
			for i := int32(0); i < 25; i++ {
				var sum int32
				err := c.Call(procAdd,
					func(e *xdr.Encoder) { e.PutUint32(uint32(g)); e.PutUint32(uint32(i)) },
					func(d *xdr.Decoder) error {
						var err error
						sum, err = d.Int32()
						return err
					})
				if err != nil || sum != g+i {
					t.Errorf("g=%d i=%d: sum=%d err=%v", g, i, sum, err)
					return
				}
			}
		}(int32(g))
	}
	wg.Wait()
}

func TestRecordMarkingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := [][]byte{
		{},
		[]byte("short"),
		bytes.Repeat([]byte{0xAB}, 3000),
	}
	for _, m := range msgs {
		if err := writeRecord(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for _, want := range msgs {
		got, err := readRecord(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record = %d bytes, want %d", len(got), len(want))
		}
	}
}

func TestRecordFragmentation(t *testing.T) {
	// A message larger than maxFragment must be split and
	// reassembled.
	big := make([]byte, maxFragment+1234)
	for i := range big {
		big[i] = byte(i)
	}
	var buf bytes.Buffer
	if err := writeRecord(&buf, big); err != nil {
		t.Fatal(err)
	}
	// First fragment header must not have the last-fragment bit.
	hdr := buf.Bytes()[:4]
	if hdr[0]&0x80 != 0 {
		t.Fatal("first fragment marked last")
	}
	got, err := readRecord(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("reassembly mismatch")
	}
}

func TestReadRecordRejectsHugeLengths(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0x7f, 0xff, 0xff, 0xff}) // ~2GB non-final fragment
	if _, err := readRecord(&buf, nil); err == nil {
		t.Fatal("expected oversize rejection")
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		var buf bytes.Buffer
		if err := writeRecord(&buf, data); err != nil {
			return false
		}
		got, err := readRecord(&buf, nil)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGarbledReplyDetected(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	go func() {
		// Read the call, then reply with a mismatched xid.
		rec, err := readRecord(sc, nil)
		if err != nil {
			return
		}
		_ = rec
		var e xdr.Encoder
		encodeAcceptedReply(&e, 0xdeadbeef, Success)
		_ = writeRecord(sc, e.Bytes())
	}()
	c := NewClient(cc, testProg, testVers)
	err := c.Call(0, nil, nil)
	if !errors.Is(err, ErrXIDMismatch) {
		t.Fatalf("err = %v, want xid mismatch", err)
	}
}

func TestOverTCPSocket(t *testing.T) {
	// End-to-end over a real TCP loopback socket.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := newTestServer()
	go func() { _ = srv.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewClient(conn, testProg, testVers)
	payload := bytes.Repeat([]byte("x"), 8192)
	var got []byte
	err = c.Call(procEcho,
		func(e *xdr.Encoder) { e.PutOpaque(payload) },
		func(d *xdr.Decoder) error {
			b, err := d.Opaque()
			got = append([]byte(nil), b...)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch over TCP")
	}
}

// BenchmarkRecordMarking measures the framing layer alone for
// message sizes around the fragment boundary.
func BenchmarkRecordMarking(b *testing.B) {
	for _, size := range []int{128, 8 << 10, maxFragment + 512} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			msg := make([]byte, size)
			var buf bytes.Buffer
			var scratch []byte
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := writeRecord(&buf, msg); err != nil {
					b.Fatal(err)
				}
				rec, err := readRecord(&buf, scratch)
				if err != nil {
					b.Fatal(err)
				}
				scratch = rec[:cap(rec)]
			}
		})
	}
}
