// Package fbufrpc carries flexrpc calls over fbufs used completely
// transparently (paper §4.3): marshaled request and reply bodies are
// produced into fbufs from a pairwise pool, control transfer goes
// through the streamlined Mach IPC path with only the fbuf id and
// length inline, and endpoints remain oblivious — the system behaves
// like an LRPC-style shared-memory transport.
//
// Servers that want more than pairwise transparency (keeping data in
// fbufs along a longer path) do so with [special] presentation
// attributes at the stub layer; see the pipe server's fbuf mode.
package fbufrpc

import (
	"errors"
	"fmt"

	"flexrpc/internal/fbuf"
	"flexrpc/internal/mach"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/transport/machipc"
)

// Inline word layout for control messages.
const (
	wordOp = iota // operation index
	wordBufID
	wordLen
)

// An Endpoint names one side of a pairwise fbuf channel.
type Endpoint struct {
	Task   *mach.Task
	Domain *fbuf.Domain
}

// A Channel is the shared state of one client-server pair: the data
// path and its pool.
type Channel struct {
	Path   *fbuf.Path
	Client Endpoint
	Server Endpoint
}

// NewChannel builds a pairwise channel with a pool of count bufSize
// fbufs.
func NewChannel(client, server Endpoint, bufSize, count int) *Channel {
	return &Channel{
		Path:   fbuf.NewPath(bufSize, count, client.Domain, server.Domain),
		Client: client,
		Server: server,
	}
}

// A Conn is the client side, implementing runtime.Conn.
type Conn struct {
	ch      *Channel
	binding *mach.Binding
}

// Dial binds the client to the server registered on right.
func Dial(ch *Channel, right mach.Name, clientPres *pres.Presentation) (*Conn, error) {
	b, err := mach.Bind(ch.Client.Task, right, machipc.SigFor(clientPres))
	if err != nil {
		return nil, err
	}
	return &Conn{ch: ch, binding: b}, nil
}

// Call implements runtime.Conn: the request body is produced into an
// fbuf and transferred to the server; the reply arrives in another
// fbuf whose contents are gathered into replyBuf.
func (c *Conn) Call(opIdx int, req []byte, replyBuf []byte) ([]byte, error) {
	if len(req) > c.ch.Path.BufSize() {
		return nil, fmt.Errorf("fbufrpc: request of %d bytes exceeds fbuf size %d", len(req), c.ch.Path.BufSize())
	}
	buf, err := c.ch.Path.Alloc(c.ch.Client.Domain)
	if err != nil {
		return nil, err
	}
	// The endpoint copy: a standard-presentation client gets its
	// data into the fbuf world by producing into the buffer.
	if err := buf.Produce(c.ch.Client.Domain, req); err != nil {
		return nil, err
	}
	if err := buf.Transfer(c.ch.Client.Domain, c.ch.Server.Domain, false); err != nil {
		return nil, err
	}
	msg := &mach.Message{}
	msg.Inline[wordOp] = uint32(opIdx)
	msg.Inline[wordBufID] = buf.ID()
	msg.Inline[wordLen] = uint32(len(req))
	r, err := c.binding.Call(msg, nil)
	if err != nil {
		return nil, err
	}
	// Reply fbuf was transferred to us before the reply message.
	rbuf, err := c.ch.Path.ByID(c.ch.Client.Domain, r.Inline[wordBufID])
	if err != nil {
		return nil, err
	}
	data, err := rbuf.Bytes(c.ch.Client.Domain)
	if err != nil {
		return nil, err
	}
	var out []byte
	if cap(replyBuf) >= len(data) {
		out = replyBuf[:len(data)]
	} else {
		out = make([]byte, len(data))
	}
	copy(out, data) // the client-side endpoint copy out of the fbuf
	if err := rbuf.Free(c.ch.Client.Domain); err != nil {
		return nil, err
	}
	return out, nil
}

// Close implements runtime.Conn.
func (c *Conn) Close() error { return nil }

// Serve runs the server loop on port under disp's server plan for
// codec: requests arrive as fbufs, replies are produced into fresh
// fbufs and transferred back.
func Serve(ch *Channel, port *mach.Port, disp *runtime.Dispatcher, codec runtime.Codec) error {
	plan, err := disp.Plan(codec)
	if err != nil {
		return err
	}
	port.RegisterServer(machipc.SigFor(disp.Pres))
	enc := codec.NewEncoder()
	for {
		in, err := ch.Server.Task.Receive(port, nil)
		if err != nil {
			if errors.Is(err, mach.ErrDeadPort) {
				return nil
			}
			return err
		}
		reply, err := serveOne(ch, disp, plan, enc, in)
		if err != nil {
			return err
		}
		in.Reply(reply)
	}
}

func serveOne(ch *Channel, disp *runtime.Dispatcher, plan *runtime.Plan, enc runtime.Encoder, in *mach.Incoming) (*mach.Message, error) {
	srv := ch.Server.Domain
	buf, err := ch.Path.ByID(srv, in.Inline[wordBufID])
	if err != nil {
		return nil, err
	}
	body, err := buf.Bytes(srv)
	if err != nil {
		return nil, err
	}
	body = body[:in.Inline[wordLen]]
	enc.Reset()
	disp.ServeMessage(plan, int(in.Inline[wordOp]), body, enc)
	if err := buf.Free(srv); err != nil {
		return nil, err
	}
	rbuf, err := ch.Path.Alloc(srv)
	if err != nil {
		return nil, err
	}
	if err := rbuf.Produce(srv, enc.Bytes()); err != nil {
		return nil, err
	}
	if err := rbuf.Transfer(srv, ch.Client.Domain, false); err != nil {
		return nil, err
	}
	reply := &mach.Message{}
	reply.Inline[wordBufID] = rbuf.ID()
	reply.Inline[wordLen] = uint32(len(enc.Bytes()))
	return reply, nil
}
