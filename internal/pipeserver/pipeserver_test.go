package pipeserver

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"testing/quick"

	"flexrpc/internal/mach"
	"flexrpc/internal/netsim"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/transport/inproc"
	"flexrpc/internal/transport/suntcp"
)

// --- Pipe (circular buffer) unit tests ---

func TestPipeFIFO(t *testing.T) {
	p := NewPipe(16)
	if _, err := p.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadCopy(4)
	if err != nil || string(got) != "abcd" {
		t.Fatalf("read = %q, %v", got, err)
	}
	got, err = p.ReadCopy(10)
	if err != nil || string(got) != "ef" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestPipeBlockingFlowControl(t *testing.T) {
	p := NewPipe(4)
	done := make(chan error, 1)
	go func() {
		// 8 bytes through a 4-byte pipe: must block until read.
		_, err := p.Write([]byte("12345678"))
		done <- err
	}()
	var got []byte
	for len(got) < 8 {
		b, err := p.ReadCopy(4)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(got) != "12345678" {
		t.Fatalf("got %q", got)
	}
}

func TestPipeEOF(t *testing.T) {
	p := NewPipe(8)
	_, _ = p.Write([]byte("xy"))
	p.CloseWrite()
	b, err := p.ReadCopy(8)
	if err != nil || string(b) != "xy" {
		t.Fatalf("read = %q, %v", b, err)
	}
	if _, err := p.ReadCopy(8); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	if _, _, err := p.PeekZeroCopy(8); err != io.EOF {
		t.Fatalf("peek err = %v, want EOF", err)
	}
}

func TestPipeEPIPE(t *testing.T) {
	p := NewPipe(4)
	p.CloseRead()
	if _, err := p.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// A writer blocked on a full pipe is released by CloseRead.
	p2 := NewPipe(2)
	_, _ = p2.Write([]byte("ab"))
	done := make(chan error, 1)
	go func() {
		_, err := p2.Write([]byte("c"))
		done <- err
	}()
	p2.CloseRead()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked writer err = %v", err)
	}
}

func TestPeekZeroCopyAndWrap(t *testing.T) {
	p := NewPipe(8)
	_, _ = p.Write([]byte("abcdef"))
	view, wrapped, err := p.PeekZeroCopy(4)
	if err != nil || wrapped || string(view) != "abcd" {
		t.Fatalf("peek = %q, %v, %v", view, wrapped, err)
	}
	// Nothing consumed yet.
	if p.count != 6 {
		t.Fatalf("len = %d", p.count)
	}
	p.Consume(4)
	if p.count != 2 {
		t.Fatalf("len after consume = %d", p.count)
	}
	// Force wrap: r=4, write 5 more -> data spans the boundary.
	_, _ = p.Write([]byte("ghijk"))
	view, wrapped, err = p.PeekZeroCopy(7)
	if err != nil {
		t.Fatal(err)
	}
	if !wrapped {
		t.Fatal("expected wrapped view")
	}
	if string(view) != "efgh" { // contiguous run up to end of buffer
		t.Fatalf("view = %q", view)
	}
}

// Property: for any write/read size pattern the pipe preserves the
// byte stream exactly, with a concurrent reader and writer.
func TestQuickPipeStreamIntegrity(t *testing.T) {
	f := func(chunks []byte, readSizes []byte) bool {
		p := NewPipe(64)
		var want []byte
		for i, c := range chunks {
			chunk := bytes.Repeat([]byte{c}, int(c)%97+1)
			_ = i
			want = append(want, chunk...)
		}
		go func() {
			off := 0
			for _, c := range chunks {
				n := int(c)%97 + 1
				_, _ = p.Write(want[off : off+n])
				off += n
			}
			p.CloseWrite()
		}()
		var got []byte
		i := 0
		for {
			max := 1
			if len(readSizes) > 0 {
				max = int(readSizes[i%len(readSizes)])%63 + 1
			}
			i++
			b, err := p.ReadCopy(max)
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			got = append(got, b...)
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- Mach pipe server integration ---

// startMachPipe assembles a pipe server plus writer/reader clients.
func startMachPipe(t *testing.T, pipeSize int, pdl string) (*Client, *Client) {
	t.Helper()
	compiled, err := Compile()
	if err != nil {
		t.Fatal(err)
	}
	serverPres := compiled.Pres
	if pdl != "" {
		sc, err := compiled.WithPDL("server.pdl", pdl)
		if err != nil {
			t.Fatal(err)
		}
		serverPres = sc.Pres
	}
	srv, err := NewServer(pipeSize, serverPres)
	if err != nil {
		t.Fatal(err)
	}
	k := mach.NewKernel()
	serverTask := k.NewTask("pipe-server")
	_, port := serverTask.AllocatePort()
	srv.ServeMach(serverTask, port, 2)
	t.Cleanup(port.Destroy)

	writerTask := k.NewTask("writer")
	readerTask := k.NewTask("reader")
	wc, err := NewMachClient(writerTask, writerTask.InsertRight(port), compiled.DefaultPres(pres.StyleCORBA))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewMachClient(readerTask, readerTask.InsertRight(port), compiled.DefaultPres(pres.StyleCORBA))
	if err != nil {
		t.Fatal(err)
	}
	return wc, rc
}

// pumpThrough writes total bytes in chunkSize chunks while reading
// them back, returning the bytes read.
func pumpThrough(t *testing.T, w, r *Client, total, chunkSize int) []byte {
	t.Helper()
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i * 7)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for off := 0; off < total; off += chunkSize {
			end := off + chunkSize
			if end > total {
				end = total
			}
			if err := w.Write(src[off:end]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		if err := w.CloseWrite(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	var got []byte
	for {
		b, err := r.Read(chunkSize)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got = append(got, b...)
	}
	wg.Wait()
	if !bytes.Equal(got, src) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(src))
	}
	return got
}

func TestMachPipeDefaultPresentation(t *testing.T) {
	w, r := startMachPipe(t, 4096, "")
	pumpThrough(t, w, r, 64<<10, 1024)
}

func TestMachPipeDeallocNever(t *testing.T) {
	w, r := startMachPipe(t, 4096, Figure5PDL)
	pumpThrough(t, w, r, 64<<10, 1024)
}

func TestMachPipeDeallocNever8K(t *testing.T) {
	w, r := startMachPipe(t, 8192, Figure5PDL)
	pumpThrough(t, w, r, 64<<10, 2048)
}

func TestMachPipeEPIPE(t *testing.T) {
	w, r := startMachPipe(t, 4096, "")
	// No client stub closes the read end; the operation is in the
	// contract and the server honours it.
	if _, _, err := r.inv.Invoke("close_read", []runtime.Value{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	err := w.Write([]byte("x"))
	if err == nil {
		t.Fatal("write after CloseRead should fail")
	}
}

// --- fbuf pipe (special presentation) ---

func startFbufPipe(t *testing.T, pipeSize, bufSize int) *FbufPipe {
	t.Helper()
	fp, err := StartFbufPipe(FbufPipeConfig{
		Kernel:   mach.NewKernel(),
		PipeSize: pipeSize,
		BufSize:  bufSize,
		PoolSize: pipeSize/bufSize*2 + 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fp.Port.Destroy)
	return fp
}

func TestFbufPipeStream(t *testing.T) {
	fp := startFbufPipe(t, 4096, 1024)
	total := 64 << 10
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i * 13)
	}
	go func() {
		for off := 0; off < total; off += 1024 {
			if err := fp.Writer.Write(src[off : off+1024]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		if err := fp.Writer.CloseWrite(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	got := make([]byte, 0, total)
	buf := make([]byte, 1024)
	for {
		n, err := fp.Reader.Read(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("stream corrupted: %d bytes, want %d", len(got), len(src))
	}
}

func TestFbufPipePartialReads(t *testing.T) {
	fp := startFbufPipe(t, 4096, 1024)
	if err := fp.Writer.Write(bytes.Repeat([]byte("z"), 1000)); err != nil {
		t.Fatal(err)
	}
	// Read less than one segment: server must copy the head.
	small := make([]byte, 100)
	n, err := fp.Reader.Read(small)
	if err != nil || n != 100 {
		t.Fatalf("read = %d, %v", n, err)
	}
	rest := make([]byte, 2048)
	n, err = fp.Reader.Read(rest)
	if err != nil || n != 900 {
		t.Fatalf("rest = %d, %v", n, err)
	}
}

func TestFbufPipeEOFAndEPIPE(t *testing.T) {
	fp := startFbufPipe(t, 4096, 1024)
	if err := fp.Writer.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := fp.Reader.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}

	fp2 := startFbufPipe(t, 4096, 1024)
	msg := &mach.Message{}
	msg.Inline[0] = fpCloseRead
	if reply, err := fp2.Reader.bind.Call(msg, nil); err != nil || decodeStatus(reply.Body) != nil {
		t.Fatalf("close_read: %v", err)
	}
	if err := fp2.Writer.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestFbufPipePoolConserved(t *testing.T) {
	fp := startFbufPipe(t, 4096, 1024)
	before := fp.Server.path.FreeCount()
	for i := 0; i < 20; i++ {
		if err := fp.Writer.Write(bytes.Repeat([]byte("q"), 512)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 512)
		if _, err := fp.Reader.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	if after := fp.Server.path.FreeCount(); after != before {
		t.Fatalf("pool leaked: %d -> %d", before, after)
	}
}

// The same pipe server dispatcher, unchanged, served over Sun RPC on
// stream connections instead of simulated Mach IPC: the paper's
// stub-compiler design makes servers transport-independent.
func TestPipeServerOverSunRPC(t *testing.T) {
	compiled, err := Compile()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(4096, compiled.Pres)
	if err != nil {
		t.Fatal(err)
	}
	rpcServer, err := suntcp.NewServer(srv.Disp)
	if err != nil {
		t.Fatal(err)
	}

	dial := func() *Client {
		cc, sc := netsim.BufferedPipe(netsim.LinkParams{}, 64)
		// One connection per client program; a blocked write on one
		// connection must not stall the other.
		go func() { _ = rpcServer.ServeConn(sc) }()
		t.Cleanup(func() { cc.Close() })
		p := compiled.DefaultPres(pres.StyleCORBA)
		rc, err := runtime.NewClient(p, runtime.XDRCodec, suntcp.Dial(cc, p), nil)
		if err != nil {
			t.Fatal(err)
		}
		return NewClientOver(rc)
	}
	w, r := dial(), dial()
	pumpThrough(t, w, r, 64<<10, 1024)
}

// The Figure 6 mechanism, asserted structurally: under the default
// presentation every read pays the circular-buffer copy; under
// [dealloc(never)] only wrap-around reads do.
func TestDeallocNeverEliminatesReadCopies(t *testing.T) {
	run := func(pdl string) (*Server, int) {
		compiled, err := Compile()
		if err != nil {
			t.Fatal(err)
		}
		serverPres := compiled.Pres
		if pdl != "" {
			sc, err := compiled.WithPDL("s.pdl", pdl)
			if err != nil {
				t.Fatal(err)
			}
			serverPres = sc.Pres
		}
		srv, err := NewServer(4096, serverPres)
		if err != nil {
			t.Fatal(err)
		}
		k := mach.NewKernel()
		serverTask := k.NewTask("pipe-server")
		_, port := serverTask.AllocatePort()
		srv.ServeMach(serverTask, port, 2)
		t.Cleanup(port.Destroy)
		writerTask := k.NewTask("writer")
		readerTask := k.NewTask("reader")
		w, err := NewMachClient(writerTask, writerTask.InsertRight(port), compiled.DefaultPres(pres.StyleCORBA))
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewMachClient(readerTask, readerTask.InsertRight(port), compiled.DefaultPres(pres.StyleCORBA))
		if err != nil {
			t.Fatal(err)
		}
		reads := 0
		data := make([]byte, 1024)
		for i := 0; i < 32; i++ {
			if err := w.Write(data); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Read(1024); err != nil {
				t.Fatal(err)
			}
			reads++
		}
		return srv, reads
	}

	srv, reads := run("")
	if got := srv.Pipe.readCopies.Load(); got != uint64(reads) {
		t.Errorf("default presentation: %d copies for %d reads, want every read to copy", got, reads)
	}
	srv, reads = run(Figure5PDL)
	if got := srv.Pipe.readCopies.Load(); got > uint64(reads)/4 {
		t.Errorf("[dealloc(never)]: %d copies for %d reads, want only wrap-around copies", got, reads)
	}
}

// The Figure 7 mechanism, asserted structurally: with the [special]
// presentation the server copies nothing when reads consume whole
// segments, and copies exactly once per partial read.
func TestFbufSpecialServerIsZeroCopy(t *testing.T) {
	fp := startFbufPipe(t, 8192, 1024)
	buf := make([]byte, 1024)
	for i := 0; i < 16; i++ {
		if err := fp.Writer.Write(bytes.Repeat([]byte{byte(i)}, 1024)); err != nil {
			t.Fatal(err)
		}
		if _, err := fp.Reader.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := fp.Server.copies.Load(); got != 0 {
		t.Fatalf("whole-segment reads caused %d server copies, want 0", got)
	}
	// A partial read pays exactly one copy.
	if err := fp.Writer.Write(bytes.Repeat([]byte{0xEE}, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := fp.Reader.Read(buf[:100]); err != nil {
		t.Fatal(err)
	}
	if got := fp.Server.copies.Load(); got != 1 {
		t.Fatalf("partial read caused %d copies, want 1", got)
	}
}

// The Figure 5 server bound in the same domain: its read returns a view
// of the circular buffer and consumes it in an AfterReply action, which
// the same-domain program must run — or every read returns the same
// bytes. The action frees the storage the view aliases, so the client
// gets a copy: the first read still says "abc" once the buffer has
// wrapped over it.
func TestInprocPipeRunsAfterReply(t *testing.T) {
	compiled, err := Compile()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := compiled.WithPDL("server.pdl", Figure5PDL)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(6, sc.Pres)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := inproc.Connect(compiled.DefaultPres(pres.StyleCORBA), srv.Disp)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClientOver(conn)
	var reads [][]byte
	for _, chunk := range []string{"abc", "def"} {
		if err := c.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
		got, err := c.Read(3)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != chunk {
			t.Fatalf("read %q after writing %q", got, chunk)
		}
		reads = append(reads, got)
	}
	if err := c.Write([]byte("xyz")); err != nil { // wraps over "abc"
		t.Fatal(err)
	}
	if string(reads[0]) != "abc" || string(reads[1]) != "def" {
		t.Fatalf("earlier reads now say %q and %q: they alias the pipe's buffer", reads[0], reads[1])
	}
}
