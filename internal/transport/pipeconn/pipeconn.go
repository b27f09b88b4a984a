// Package pipeconn carries flexrpc calls over a pair of bsdpipe
// pipes — the monolithic-kernel transport of the paper's Figure 7
// promoted to a first-class RPC binding. Each direction is one pipe;
// messages are length-prefixed frames (op index + body length, both
// uint32 big-endian), so a 4K pipe buffer carries arbitrarily large
// marshaled bodies in BufferSize slices, each paying the two
// user/kernel copies the model charges for.
//
// The client side implements runtime.Conn; the server side is a
// Serve loop over a Dispatcher and Plan, symmetric with the suntcp
// server. Both ends accept a stats.Endpoint: frames and bytes land in
// the Wire meter, so the pipe transport reports through the same
// observability interface as inproc and Sun RPC.
package pipeconn

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"flexrpc/internal/bsdpipe"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
)

const headerSize = 8 // uint32 op index + uint32 body length

// MaxFrame bounds a frame body; a length prefix beyond it means the
// stream is desynchronized and the read fails instead of allocating.
const MaxFrame = 16 << 20

// A Conn is the client end: requests flow out req, replies flow back
// in rep. One call is in flight at a time (a pipe has no xids).
type Conn struct {
	mu    sync.Mutex
	req   *bsdpipe.Pipe // client -> server
	rep   *bsdpipe.Pipe // server -> client
	stats *stats.Endpoint
}

// A Server executes frames read from req against a dispatcher and
// writes reply frames to rep.
type Server struct {
	disp *runtime.Dispatcher
	plan *runtime.Plan
	req  *bsdpipe.Pipe
	rep  *bsdpipe.Pipe
}

// New creates a connected client/server pair. Run srv.Serve in a
// goroutine, then issue calls on the Conn.
func New(disp *runtime.Dispatcher, plan *runtime.Plan) (*Conn, *Server) {
	req, rep := bsdpipe.New(), bsdpipe.New()
	return &Conn{req: req, rep: rep}, &Server{disp: disp, plan: plan, req: req, rep: rep}
}

// SetStats points the connection's wire meter at e; every frame is
// metered with its header, matching what crosses the pipe.
func (c *Conn) SetStats(e *stats.Endpoint) {
	c.mu.Lock()
	c.stats = e
	c.mu.Unlock()
}

// Call implements runtime.Conn.
func (c *Conn) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := writeFrame(c.req, uint32(opIdx), req); err != nil {
		return nil, fmt.Errorf("pipeconn: send: %w", err)
	}
	if c.stats != nil {
		c.stats.Wire.Add(headerSize + len(req))
	}
	_, body, err := readFrame(c.rep, replyBuf)
	if err != nil {
		return nil, fmt.Errorf("pipeconn: receive: %w", err)
	}
	if c.stats != nil {
		c.stats.Wire.Add(headerSize + len(body))
	}
	return body, nil
}

// Close tears both directions down.
func (c *Conn) Close() error {
	c.req.CloseWrite()
	c.rep.CloseRead()
	return nil
}

// Serve runs the request loop until the client closes its end or ctx
// is done (checked between frames; a pipe read cannot be interrupted).
// The returned error is nil on clean EOF.
func (s *Server) Serve(ctx context.Context) error {
	enc := s.plan.Codec.NewEncoder()
	var body []byte
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		opIdx, req, err := readFrame(s.req, body)
		if err == io.EOF {
			s.rep.CloseWrite()
			return nil
		}
		if err != nil {
			s.rep.CloseWrite()
			return fmt.Errorf("pipeconn: serve: %w", err)
		}
		body = req[:0]
		enc.Reset()
		s.disp.ServeMessageContext(ctx, s.plan, int(opIdx), req, enc)
		if err := writeFrame(s.rep, opIdx, enc.Bytes()); err != nil {
			return fmt.Errorf("pipeconn: reply: %w", err)
		}
	}
}

// ServeSession is Serve for session traffic: each frame body is an
// at-most-once session frame (client id, sequence number, flags,
// checksum) handed to sess.HandleAppend instead of straight to a
// dispatcher, so a RobustConn client gets retries, duplicate
// suppression and reply replay over the pipe transport.
func (s *Server) ServeSession(ctx context.Context, sess *runtime.SessionServer) error {
	var body, frame []byte
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		opIdx, req, err := readFrame(s.req, body)
		if err == io.EOF {
			s.rep.CloseWrite()
			return nil
		}
		if err != nil {
			s.rep.CloseWrite()
			return fmt.Errorf("pipeconn: serve: %w", err)
		}
		body = req[:0]
		frame = sess.HandleAppend(ctx, int(opIdx), req, frame[:0])
		if err := writeFrame(s.rep, opIdx, frame); err != nil {
			return fmt.Errorf("pipeconn: reply: %w", err)
		}
	}
}

func writeFrame(p *bsdpipe.Pipe, opIdx uint32, body []byte) error {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:], opIdx)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(body)))
	if _, err := p.Write(hdr[:]); err != nil {
		return err
	}
	_, err := p.Write(body)
	return err
}

func readFrame(p *bsdpipe.Pipe, buf []byte) (uint32, []byte, error) {
	var hdr [headerSize]byte
	if err := readFull(p, hdr[:]); err != nil {
		return 0, nil, err
	}
	opIdx := binary.BigEndian.Uint32(hdr[0:])
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("frame length %d exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if err := readFull(p, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return opIdx, buf, nil
}

func readFull(p *bsdpipe.Pipe, dst []byte) error {
	for off := 0; off < len(dst); {
		n, err := p.Read(dst[off:])
		off += n
		if err != nil {
			if err == io.EOF && off == 0 && len(dst) > 0 {
				return io.EOF
			}
			if err == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}
