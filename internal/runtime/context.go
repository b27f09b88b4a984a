package runtime

import (
	"context"
	"fmt"
)

// A ContextConn is a Conn whose calls honor per-call deadlines and
// cancellation. Transports that can abandon an in-flight call without
// tearing the connection down (the xid-multiplexed Sun RPC client)
// implement this; everything else is adapted by CallConn.
type ContextConn interface {
	Conn
	CallContext(ctx context.Context, opIdx int, req []byte, replyBuf []byte) ([]byte, error)
}

// A ContextInvoker is an Invoker with per-call deadlines and
// cancellation. Both the marshal-based Client and the inproc engine
// implement it.
type ContextInvoker interface {
	Invoker
	InvokeContext(ctx context.Context, op string, args []Value, outBufs [][]byte, retBuf []byte) (outs []Value, ret Value, err error)
}

// CallConn round-trips one request over conn under ctx. When conn
// implements ContextConn the deadline propagates into the transport;
// otherwise the call runs in a goroutine that is abandoned on expiry.
// An abandoned call's transport buffers stay with the goroutine —
// the caller's replyBuf is never handed to it, and req is copied —
// so expiry cannot corrupt a pooled buffer that the caller reuses.
func CallConn(ctx context.Context, conn Conn, opIdx int, req, replyBuf []byte) ([]byte, error) {
	if cc, ok := conn.(ContextConn); ok {
		return cc.CallContext(ctx, opIdx, req, replyBuf)
	}
	if ctx == nil || ctx.Done() == nil {
		// No deadline and no cancellation: the direct path stays
		// zero-alloc.
		return conn.Call(opIdx, req, replyBuf)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type result struct {
		reply []byte
		err   error
	}
	// The goroutine may outlive this call, so it must not touch any
	// buffer the caller will reuse: copy the request (the encoder
	// behind req is recycled when Invoke returns) and allocate the
	// reply itself.
	reqCopy := make([]byte, len(req))
	copy(reqCopy, req)
	ch := make(chan result, 1)
	go func() {
		reply, err := conn.Call(opIdx, reqCopy, nil)
		ch <- result{reply, err}
	}()
	select {
	case r := <-ch:
		return r.reply, r.err
	case <-ctx.Done():
		return nil, fmt.Errorf("runtime: call abandoned: %w", ctx.Err())
	}
}

// InvokeContext is Invoke with a per-call context: the deadline
// propagates into the transport (see CallConn).
func (c *Client) InvokeContext(ctx context.Context, op string, args []Value, outBufs [][]byte, retBuf []byte) ([]Value, Value, error) {
	return c.invoke(ctx, op, args, outBufs, retBuf)
}
