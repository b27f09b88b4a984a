package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"flexrpc/internal/pres"
	"flexrpc/internal/stats"
)

// A Conn is a client-side message transport: it moves request bytes
// to the server's dispatcher and returns the reply bytes, which may
// land in replyBuf when provided and large enough.
type Conn interface {
	Call(opIdx int, req []byte, replyBuf []byte) ([]byte, error)
	Close() error
}

// SelfFraming is implemented by transports whose own protocol
// already conveys remote errors (Sun RPC's accept_stat); the runtime
// then omits its status word, keeping the wire format interoperable
// with hand-coded peers speaking the same protocol.
type SelfFraming interface {
	SelfFraming() bool
}

// An Invoker is anything a client can call operations through: the
// marshal-based Client below, or the same-domain engine in the
// inproc transport. args is indexed by parameter position (out-only
// positions ignored); outBufs optionally provides caller-allocated
// landing buffers per parameter, and retBuf one for the result.
// The returned slice is indexed by parameter position for out/inout
// values; ret is the operation result. A value landed in a caller's
// buffer is a view of it: like its bytes, its length is that of the
// last reply landed there (slab.go), so keep the []byte, not the Value.
type Invoker interface {
	Invoke(op string, args []Value, outBufs [][]byte, retBuf []byte) (outs []Value, ret Value, err error)
}

// A Client executes calls by marshaling through a Plan onto a Conn.
type Client struct {
	plan   *Plan
	conn   Conn
	framed bool

	// Observability: nil means disabled, and disabled costs exactly
	// one nil check per call (the zero-alloc gates assert this).
	stats     *stats.Endpoint
	traceConn TraceConn // conn's trace-propagating form, when it has one

	// One encoder, reply decoder and reply landing buffer, recycled
	// across calls behind mu so the steady-state path allocates nothing.
	mu       sync.Mutex
	enc      Encoder
	dec      Decoder
	replyBuf []byte
}

// A TraceConn is a Conn that can propagate a trace id alongside a
// call — the session layer carries it to the server in the upper
// bits of its existing flags word, so client- and server-side trace
// events correlate without any wire-format change.
type TraceConn interface {
	Conn
	CallTraceContext(ctx context.Context, opIdx int, req, replyBuf []byte, tid uint32) ([]byte, error)
}

// NewClient builds a marshal-based client for presentation p over
// conn. hooks may be nil when no parameter is [special]. A Client is
// safe for concurrent use and serializes its calls; to pipeline, bind
// several Clients over one Conn that accepts concurrent Calls (the
// xid-multiplexed Sun RPC client, RobustConn over it).
func NewClient(p *pres.Presentation, codec Codec, conn Conn, hooks SpecialHooks) (*Client, error) {
	plan, err := NewPlan(p, codec, hooks)
	if err != nil {
		return nil, err
	}
	tc, _ := conn.(TraceConn)
	return &Client{plan: plan, conn: conn, framed: connFramed(conn), traceConn: tc, enc: codec.NewEncoder()}, nil
}

func connFramed(conn Conn) bool {
	if sf, ok := conn.(SelfFraming); ok && sf.SelfFraming() {
		return false
	}
	return true
}

// EnableStats switches on client-side observability, creating the
// endpoint on first use: per-op counters and latency histograms,
// codec encode/decode meters, and the plan's copy/alloc meters. The
// session layer (RobustConn.SetStats) and transports can share the
// same endpoint so one snapshot covers the whole client stack.
// Enable before issuing calls; not safe concurrently with them.
func (c *Client) EnableStats() *stats.Endpoint {
	if c.stats == nil {
		c.SetStats(stats.New(opNames(c.plan.Pres)))
	}
	return c.stats
}

// SetStats installs (or, with nil, removes) the observability
// endpoint, pointing the plan's copy/alloc meters at it too.
func (c *Client) SetStats(e *stats.Endpoint) {
	c.stats = e
	c.plan.SetStats(e)
	if tc, ok := c.conn.(interface{ SetStats(*stats.Endpoint) }); ok {
		tc.SetStats(e)
	}
}

// Stats snapshots the client-side counters; on a disabled client the
// snapshot is empty but non-nil.
func (c *Client) Stats() *stats.Snapshot { return c.stats.Snapshot() }

// clientOutcome classifies a call error for the counters.
func clientOutcome(err error) stats.Outcome {
	if err == nil {
		return stats.OK
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return stats.TimedOut
	}
	return stats.Failed
}

// Invoke implements Invoker: marshal the request, round-trip it,
// unmarshal the reply.
func (c *Client) Invoke(op string, args []Value, outBufs [][]byte, retBuf []byte) ([]Value, Value, error) {
	return c.invoke(nil, op, args, outBufs, retBuf)
}

// invoke is the shared entry for Invoke and InvokeContext. ctx may
// be nil (no deadline).
func (c *Client) invoke(ctx context.Context, op string, args []Value, outBufs [][]byte, retBuf []byte) ([]Value, Value, error) {
	idx := c.plan.OpIndex(op)
	if idx < 0 {
		return nil, nil, fmt.Errorf("runtime: unknown operation %q", op)
	}
	opPlan := c.plan.Ops[idx]

	if c.stats == nil {
		return c.call(ctx, opPlan, idx, args, outBufs, retBuf, 0)
	}

	t0 := time.Now()
	tid := c.stats.NextTraceID()
	outs, ret, err := c.call(ctx, opPlan, idx, args, outBufs, retBuf, tid)
	c.stats.Trace(tid, idx, stats.StageReply)
	c.stats.RecordCall(idx, time.Since(t0), 0, 0, clientOutcome(err))
	return outs, ret, err
}

// call round-trips one call under the client mutex.
func (c *Client) call(ctx context.Context, opPlan *OpPlan, idx int, args []Value, outBufs [][]byte, retBuf []byte, tid uint32) ([]Value, Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Reset()
	if err := opPlan.EncodeRequest(c.enc, args); err != nil {
		return nil, nil, err
	}
	reply, err := c.roundTrip(ctx, idx, c.enc.Bytes(), c.replyBuf, tid)
	if err != nil {
		return nil, nil, err
	}
	if cap(reply) > cap(c.replyBuf) {
		c.replyBuf = reply[:cap(reply)]
	}
	return c.finishCall(opPlan, c.decoderFor(reply), outBufs, retBuf)
}

// roundTrip sends the marshaled request and returns the raw reply,
// metering bytes and propagating the trace id when stats are on.
func (c *Client) roundTrip(ctx context.Context, idx int, req, replyBuf []byte, tid uint32) ([]byte, error) {
	if c.stats != nil {
		c.stats.Encode.Add(len(req))
		c.stats.AddOp(idx, stats.OpBytesOut, len(req))
		c.stats.Trace(tid, idx, stats.StageEncode)
		c.stats.Trace(tid, idx, stats.StageSend)
	}
	var reply []byte
	var err error
	if tid != 0 && c.traceConn != nil {
		reply, err = c.traceConn.CallTraceContext(ctx, idx, req, replyBuf, tid)
	} else {
		reply, err = CallConn(ctx, c.conn, idx, req, replyBuf)
	}
	if err != nil {
		return nil, err
	}
	if c.stats != nil {
		c.stats.Decode.Add(len(reply))
		c.stats.AddOp(idx, stats.OpBytesIn, len(reply))
	}
	return reply, nil
}

// decoderFor aims the client's decoder (allocating it on first use) at
// the reply.
func (c *Client) decoderFor(reply []byte) Decoder {
	if c.dec == nil {
		c.dec = c.plan.NewDecoder(reply)
	} else {
		c.dec.Reset(reply)
	}
	return c.dec
}

// finishCall consumes the runtime status framing (when the transport
// is not self-framing) and decodes the reply body.
func (c *Client) finishCall(opPlan *OpPlan, dec Decoder, outBufs [][]byte, retBuf []byte) ([]Value, Value, error) {
	if c.framed {
		status, err := dec.Uint32()
		if err != nil {
			return nil, nil, fmt.Errorf("runtime: truncated reply: %w", err)
		}
		if status != replyOK {
			msg, err := dec.String()
			if err != nil {
				msg = "(unreadable error)"
			}
			return nil, nil, &RemoteError{Msg: msg}
		}
	}
	if opPlan.Op.Oneway {
		return nil, nil, nil
	}
	return opPlan.DecodeReply(dec, outBufs, retBuf)
}

// Close closes the underlying transport connection.
func (c *Client) Close() error { return c.conn.Close() }
