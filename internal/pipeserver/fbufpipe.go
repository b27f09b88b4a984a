package pipeserver

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"flexrpc/internal/fbuf"
	"flexrpc/internal/mach"
	"flexrpc/internal/xdr"
)

// The fbuf pipe server (paper §4.3): the pipe server's read and
// write calls use a [special] presentation, so incoming data stays
// in fbufs along the entire path through the server — queued as fbuf
// segments instead of being copied into and out of a circular
// buffer. The writer and reader clients keep standard presentations:
// each pays one endpoint copy to get data into and out of the fbuf
// world, and neither needs modification to interoperate.
//
// The data path has three domains — writer, server, reader — sharing
// one pool; control transfer uses the streamlined Mach IPC path with
// a tiny XDR body describing fbuf segments.

// Control message operations (carried in mach inline word 0).
const (
	fpWrite = iota
	fpRead
	fpCloseWrite
	fpCloseRead
)

// segment is one queued fbuf region.
type segment struct {
	buf *fbuf.Buffer
	off int // consumed prefix
}

// An FbufPipeServer queues fbuf segments under pipe flow control.
type FbufPipeServer struct {
	path   *fbuf.Path
	dom    *fbuf.Domain
	reader *fbuf.Domain
	limit  int

	// copies counts the partial-read copies — the only copies the
	// [special] presentation leaves in the server (exposed for the
	// Figure 7 mechanism tests).
	copies atomic.Uint64

	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	segs     []segment
	queued   int
	wclosed  bool
	rclosed  bool
}

// FbufPipeConfig wires up a three-domain fbuf pipe.
type FbufPipeConfig struct {
	Kernel   *mach.Kernel
	PipeSize int // flow-control limit, the 4K/8K of Figure 7
	BufSize  int // fbuf size
	PoolSize int // number of fbufs in the pool
}

// FbufPipe is the assembled system: server plus bound writer and
// reader clients.
type FbufPipe struct {
	Server *FbufPipeServer
	Writer *FbufWriter
	Reader *FbufReader
	Port   *mach.Port
}

// contract is the signature both clients and the server register;
// it matches the FileIO interface compiled with the special
// presentation (the contract is presentation-independent).
func contract() string {
	c, err := Compile()
	if err != nil {
		panic(err)
	}
	return c.Iface.Signature()
}

// StartFbufPipe builds the path, starts the server workers, and
// binds both clients.
func StartFbufPipe(cfg FbufPipeConfig) (*FbufPipe, error) {
	writerTask := cfg.Kernel.NewTask("writer")
	serverTask := cfg.Kernel.NewTask("pipe-server")
	readerTask := cfg.Kernel.NewTask("reader")
	wDom := fbuf.NewDomain("writer")
	sDom := fbuf.NewDomain("pipe-server")
	rDom := fbuf.NewDomain("reader")
	path := fbuf.NewPath(cfg.BufSize, cfg.PoolSize, wDom, sDom, rDom)

	srv := &FbufPipeServer{path: path, dom: sDom, reader: rDom, limit: cfg.PipeSize}
	srv.notEmpty.L = &srv.mu
	srv.notFull.L = &srv.mu

	_, port := serverTask.AllocatePort()
	sig := mach.EndpointSig{Contract: contract()}
	port.RegisterServer(sig)
	for i := 0; i < 2; i++ {
		go srv.serve(serverTask, port)
	}

	wBind, err := mach.Bind(writerTask, writerTask.InsertRight(port), sig)
	if err != nil {
		return nil, err
	}
	rBind, err := mach.Bind(readerTask, readerTask.InsertRight(port), sig)
	if err != nil {
		return nil, err
	}
	return &FbufPipe{
		Server: srv,
		Writer: &FbufWriter{path: path, dom: wDom, server: sDom, bind: wBind},
		Reader: &FbufReader{path: path, dom: rDom, bind: rBind},
		Port:   port,
	}, nil
}

// serve is one server worker thread.
func (s *FbufPipeServer) serve(task *mach.Task, port *mach.Port) {
	var enc xdr.Encoder
	for {
		in, err := task.Receive(port, nil)
		if err != nil {
			return
		}
		enc.Reset()
		s.handle(in, &enc)
		in.Reply(&mach.Message{Body: enc.Bytes()})
	}
}

func (s *FbufPipeServer) handle(in *mach.Incoming, enc *xdr.Encoder) {
	dec := xdr.NewDecoder(in.Body)
	var err error
	switch in.Inline[0] {
	case fpWrite:
		err = s.handleWrite(dec, enc)
	case fpRead:
		err = s.handleRead(dec, enc)
	case fpCloseWrite:
		s.closeWrite()
		enc.PutUint32(0)
	case fpCloseRead:
		s.closeRead()
		enc.PutUint32(0)
	default:
		err = fmt.Errorf("fbufpipe: bad op %d", in.Inline[0])
	}
	if err != nil {
		enc.Reset()
		enc.PutUint32(1)
		enc.PutString(err.Error())
	}
}

// handleWrite queues the incoming fbuf segment under flow control —
// zero copies in the server thanks to the [special] presentation.
func (s *FbufPipeServer) handleWrite(dec *xdr.Decoder, enc *xdr.Encoder) error {
	id, err := dec.Uint32()
	if err != nil {
		return err
	}
	buf, err := s.path.ByID(s.dom, id)
	if err != nil {
		return err
	}
	n := buf.Len()
	s.mu.Lock()
	for s.queued+n > s.limit && !s.rclosed {
		s.notFull.Wait()
	}
	if s.rclosed {
		s.mu.Unlock()
		_ = buf.Free(s.dom)
		return ErrClosed
	}
	s.segs = append(s.segs, segment{buf: buf})
	s.queued += n
	s.notEmpty.Broadcast()
	s.mu.Unlock()
	enc.PutUint32(0)
	return nil
}

// handleRead transfers queued segments to the reader domain, whole
// segments by splicing (no copy); a leading segment larger than the
// request is delivered partially via a fresh fbuf (the copy case).
func (s *FbufPipeServer) handleRead(dec *xdr.Decoder, enc *xdr.Encoder) error {
	max, err := dec.Uint32()
	if err != nil {
		return err
	}
	s.mu.Lock()
	for s.queued == 0 && !s.wclosed {
		s.notEmpty.Wait()
	}
	if s.queued == 0 { // EOF
		s.mu.Unlock()
		enc.PutUint32(0)
		enc.PutBool(true) // eof
		enc.PutArrayLen(0)
		return nil
	}
	type out struct{ id, off, n uint32 }
	var outs []out
	budget := int(max)
	for len(s.segs) > 0 && budget > 0 {
		seg := s.segs[0]
		remain := seg.buf.Len() - seg.off
		if remain <= budget {
			// Whole (rest of) segment: splice, no copy.
			outs = append(outs, out{seg.buf.ID(), uint32(seg.off), uint32(remain)})
			if err := seg.buf.Transfer(s.dom, s.reader, false); err != nil {
				s.mu.Unlock()
				return err
			}
			s.segs = s.segs[1:]
			s.queued -= remain
			budget -= remain
			continue
		}
		// Partial head of a large segment: copy into a fresh fbuf.
		s.copies.Add(1)
		view, err := seg.buf.Bytes(s.dom)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		nb, err := s.path.Alloc(s.dom)
		if err != nil {
			break // pool dry: deliver what we have
		}
		if err := nb.Produce(s.dom, view[seg.off:seg.off+budget]); err != nil {
			s.mu.Unlock()
			return err
		}
		if err := nb.Transfer(s.dom, s.reader, false); err != nil {
			s.mu.Unlock()
			return err
		}
		outs = append(outs, out{nb.ID(), 0, uint32(budget)})
		s.segs[0].off += budget
		s.queued -= budget
		budget = 0
	}
	s.notFull.Broadcast()
	s.mu.Unlock()

	enc.PutUint32(0)
	enc.PutBool(false)
	enc.PutArrayLen(len(outs))
	for _, o := range outs {
		enc.PutUint32(o.id)
		enc.PutUint32(o.off)
		enc.PutUint32(o.n)
	}
	return nil
}

func (s *FbufPipeServer) closeWrite() {
	s.mu.Lock()
	s.wclosed = true
	s.mu.Unlock()
	s.notEmpty.Broadcast()
}

func (s *FbufPipeServer) closeRead() {
	s.mu.Lock()
	s.rclosed = true
	// Drop queued data, freeing the fbufs.
	for _, seg := range s.segs {
		_ = seg.buf.Free(s.dom)
	}
	s.segs = nil
	s.queued = 0
	s.mu.Unlock()
	s.notFull.Broadcast()
}

// An FbufWriter is a standard-presentation writer: it pays one copy
// producing its data into an fbuf, then hands the fbuf down the
// path.
type FbufWriter struct {
	path   *fbuf.Path
	dom    *fbuf.Domain
	server *fbuf.Domain
	bind   *mach.Binding

	enc xdr.Encoder
}

// Write sends data down the pipe.
func (w *FbufWriter) Write(data []byte) error {
	if len(data) > w.path.BufSize() {
		return fmt.Errorf("fbufpipe: write of %d bytes exceeds fbuf size %d", len(data), w.path.BufSize())
	}
	buf, err := w.path.AllocBlocking(w.dom)
	if err != nil {
		return err
	}
	if err := buf.Produce(w.dom, data); err != nil {
		return err
	}
	if err := buf.Transfer(w.dom, w.server, false); err != nil {
		return err
	}
	w.enc.Reset()
	w.enc.PutUint32(buf.ID())
	msg := &mach.Message{Body: w.enc.Bytes()}
	msg.Inline[0] = fpWrite
	r, err := w.bind.Call(msg, nil)
	if err != nil {
		return err
	}
	return decodeStatus(r.Body)
}

// CloseWrite signals EOF.
func (w *FbufWriter) CloseWrite() error { return w.simple(fpCloseWrite) }

func (w *FbufWriter) simple(op uint32) error {
	msg := &mach.Message{}
	msg.Inline[0] = op
	r, err := w.bind.Call(msg, nil)
	if err != nil {
		return err
	}
	return decodeStatus(r.Body)
}

// An FbufReader is a standard-presentation reader: it gathers
// delivered segments into its own buffer (the endpoint copy) and
// frees them.
type FbufReader struct {
	path *fbuf.Path
	dom  *fbuf.Domain
	bind *mach.Binding

	enc xdr.Encoder
}

// Read fills dst with up to len(dst) bytes, returning io.EOF after
// the writer closed.
func (r *FbufReader) Read(dst []byte) (int, error) {
	r.enc.Reset()
	r.enc.PutUint32(uint32(len(dst)))
	msg := &mach.Message{Body: r.enc.Bytes()}
	msg.Inline[0] = fpRead
	reply, err := r.bind.Call(msg, nil)
	if err != nil {
		return 0, err
	}
	dec := xdr.NewDecoder(reply.Body)
	if err := decodeStatusDec(dec); err != nil {
		return 0, err
	}
	eof, err := dec.Bool()
	if err != nil {
		return 0, err
	}
	nseg, err := dec.ArrayLen()
	if err != nil {
		return 0, err
	}
	total := 0
	for i := 0; i < nseg; i++ {
		id, _ := dec.Uint32()
		off, _ := dec.Uint32()
		n, err := dec.Uint32()
		if err != nil {
			return total, err
		}
		buf, err := r.path.ByID(r.dom, id)
		if err != nil {
			return total, err
		}
		view, err := buf.Bytes(r.dom)
		if err != nil {
			return total, err
		}
		total += copy(dst[total:], view[off:off+n])
		if err := buf.Free(r.dom); err != nil {
			return total, err
		}
	}
	if eof && total == 0 {
		return 0, io.EOF
	}
	return total, nil
}

func decodeStatus(body []byte) error {
	return decodeStatusDec(xdr.NewDecoder(body))
}

func decodeStatusDec(dec *xdr.Decoder) error {
	st, err := dec.Uint32()
	if err != nil {
		return err
	}
	if st != 0 {
		msg, err := dec.String()
		if err != nil {
			msg = "(unreadable)"
		}
		if msg == ErrClosed.Error() {
			return ErrClosed
		}
		return errors.New(msg)
	}
	return nil
}
