package fileio

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"flexrpc"
	"flexrpc/internal/mach"
	"flexrpc/internal/runtime"
	"flexrpc/internal/transport/machipc"
	"flexrpc/internal/xdr"
)

// startServer runs a FileIO implementation over machipc and returns
// a dialer for fresh client connections.
func startServer(t testing.TB, srv FileIOServer) func() *machipc.Conn {
	t.Helper()
	c := compileIDL(t)
	disp := flexrpc.NewDispatcher(c.Pres)
	RegisterFileIO(disp, srv)
	k := mach.NewKernel()
	srvTask := k.NewTask("server")
	_, port := srvTask.AllocatePort()
	machipc.Announce(port, c.Pres)
	go func() { _ = machipc.Serve(srvTask, port, disp, runtime.XDRCodec) }()
	t.Cleanup(port.Destroy)

	n := 0
	return func() *machipc.Conn {
		n++
		task := k.NewTask(fmt.Sprintf("client%d", n))
		conn, err := machipc.Dial(task, task.InsertRight(port), c.Pres)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
}

// handClient is FileIO's read and write marshalled by hand straight
// onto the transport: XDR by the book, the runtime's status word
// checked in line, every buffer reused — what a programmer writes
// without a stub compiler, and the bar generated stubs are held to.
type handClient struct {
	conn     runtime.Conn
	enc      xdr.Encoder
	dec      xdr.Decoder
	replyBuf []byte
}

// call round-trips the request in h.enc and leaves h.dec at the reply
// body.
func (h *handClient) call(opIdx int) error {
	reply, err := h.conn.Call(opIdx, h.enc.Bytes(), h.replyBuf)
	if err != nil {
		return err
	}
	if cap(reply) > cap(h.replyBuf) {
		h.replyBuf = reply[:cap(reply)]
	}
	h.dec.Reset(reply)
	status, err := h.dec.Uint32()
	if err != nil {
		return err
	}
	if status != 0 {
		msg, _ := h.dec.String()
		return errors.New(msg)
	}
	return nil
}

func (h *handClient) Read(count uint32) ([]byte, error) {
	h.enc.Reset()
	h.enc.PutUint32(count)
	if err := h.call(0); err != nil {
		return nil, err
	}
	b, err := h.dec.Opaque()
	return append([]byte(nil), b...), err
}

func (h *handClient) Write(data []byte) error {
	h.enc.Reset()
	h.enc.PutOpaque(data)
	return h.call(1)
}

// Hand-marshalled requests must interoperate with a server built from
// the generated stubs: same wire, no stub compiler on one side.
func TestHandMarshalInteroperates(t *testing.T) {
	dial := startServer(t, &impl{})
	hc := &handClient{conn: dial()}

	payload := bytes.Repeat([]byte("by hand!"), 32)
	if err := hc.Write(payload); err != nil {
		t.Fatal(err)
	}
	got, err := hc.Read(uint32(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read = %d bytes", len(got))
	}
}

// The generated client differs from a dynamic caller in presentation
// only: both go through the same plan and see one server's state.
func TestGeneratedMatchesDynamic(t *testing.T) {
	dial := startServer(t, &impl{})
	c := compileIDL(t)
	rc, err := flexrpc.NewClient(c.Pres, flexrpc.XDRCodec, dial(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := flexrpc.NewClient(c.Pres, flexrpc.XDRCodec, dial(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewFileIOClient(rc)

	if err := gen.Write([]byte("shared state")); err != nil {
		t.Fatal(err)
	}
	a, err := gen.Read(6)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := dyn.Invoke("read", []flexrpc.Value{uint32(6)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != "shared" || string(b.([]byte)) != " state" {
		t.Fatalf("reads = %q, %q", a, b)
	}
}

// discardImpl is the benchmark server: writes vanish, reads return a
// fixed buffer, so the server does constant work per call.
type discardImpl struct{}

var discardData = bytes.Repeat([]byte{0xA5}, 4096)

func (discardImpl) Read(call *flexrpc.Call, count uint32) ([]byte, error) {
	if int(count) > len(discardData) {
		count = uint32(len(discardData))
	}
	return discardData[:count], nil
}
func (discardImpl) Write(call *flexrpc.Call, data []byte) error { return nil }
func (discardImpl) CloseWrite(call *flexrpc.Call) error         { return nil }
func (discardImpl) CloseRead(call *flexrpc.Call) error          { return nil }

// BenchmarkMarshalModes compares the generated stub — a typed wrapper
// over the bind-time marshal plan — with hand-written marshal code for
// the same operation over the same transport. The paper's claim is
// that generated stubs match hand-coded ones; the gap that remains is
// the plan's boxing of arguments into Values (ROADMAP item 3).
func BenchmarkMarshalModes(b *testing.B) {
	dial := startServer(b, discardImpl{})
	payload := make([]byte, 2048)

	b.Run("generated", func(b *testing.B) {
		rc, err := flexrpc.NewClient(compileIDL(b).Pres, flexrpc.XDRCodec, dial(), nil)
		if err != nil {
			b.Fatal(err)
		}
		client := NewFileIOClient(rc)
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if err := client.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hand", func(b *testing.B) {
		client := &handClient{conn: dial()}
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if err := client.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
