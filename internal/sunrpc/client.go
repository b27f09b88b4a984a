package sunrpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"flexrpc/internal/xdr"
)

// ErrClientClosed is the sticky error calls observe after Close.
var ErrClientClosed = errors.New("sunrpc: client closed")

// abandonedCap bounds the abandoned-xid set; past it the set is
// cleared, accepting that a reply to a very old abandoned call would
// then desynchronize the stream (and be handled by failAll).
const abandonedCap = 4096

// A Client issues Sun RPC calls for one program/version over a
// stream connection. Concurrent calls pipeline: each call is tagged
// with a fresh xid, writes are serialized, and replies are matched to
// callers by xid, so many calls can be in flight on one connection at
// once — the multiplexing RFC 1057 xids exist for.
//
// The reply reader has the server goroutine feed's shape: one goroutine
// per connection, started by the first call, parked in conn.Read over a
// goReadBuf scratch, pushing each read through the record assembler. It
// exits when the connection fails or Close closes it (Close waits); a
// redial's next call starts a fresh one. A client that never calls has
// none.
type Client struct {
	conn net.Conn
	prog uint32
	vers uint32

	// wmu serializes request marshaling and record writes; a record's
	// header and fragments must not interleave with another call's.
	// It also serializes redials (lock order: wmu before pmu).
	wmu sync.Mutex
	enc xdr.Encoder

	// pmu guards the pending map, the xid counter, the reader's conn,
	// the sticky transport error, the abandoned set and closed flag.
	pmu       sync.Mutex
	pending   map[uint32]*pendingCall
	nextXID   uint32
	reader    net.Conn // the connection a reply reader was started on
	err       error
	closed    bool
	abandoned map[uint32]struct{}
	redial    func() (net.Conn, error)

	readers  sync.WaitGroup // reply readers not yet exited
	callPool sync.Pool      // *pendingCall
	bufPool  sync.Pool      // *[]byte record buffers
}

// pendingCall is one in-flight call awaiting its reply record.
type pendingCall struct {
	done chan struct{}
	rec  []byte  // reply record (valid when err is nil)
	buf  *[]byte // pooled backing buffer box for rec
	err  error
	dec  xdr.Decoder // decodes rec on the caller's goroutine
}

// NewClient returns a client speaking prog/vers over conn.
func NewClient(conn net.Conn, prog, vers uint32) *Client {
	c := &Client{
		conn:    conn,
		prog:    prog,
		vers:    vers,
		nextXID: 1,
		pending: make(map[uint32]*pendingCall),
	}
	c.callPool.New = func() any { return &pendingCall{done: make(chan struct{}, 1)} }
	c.bufPool.New = func() any { return new([]byte) }
	return c
}

// SetRedial installs a dial function used to replace the connection
// after a transport failure (failAll): the next call redials through
// it instead of returning the sticky error, so a client survives a
// server restart or a mid-stream disconnect.
func (c *Client) SetRedial(dial func() (net.Conn, error)) {
	c.pmu.Lock()
	c.redial = dial
	c.pmu.Unlock()
}

// Call invokes proc: encodeArgs appends the argument body,
// decodeRes consumes the result body. decodeRes runs only on a
// successful accepted reply. Call is safe for concurrent use;
// concurrent calls share the connection in flight.
func (c *Client) Call(proc uint32, encodeArgs func(*xdr.Encoder), decodeRes func(*xdr.Decoder) error) error {
	return c.CallContext(nil, proc, encodeArgs, decodeRes)
}

// CallContext is Call with a per-call deadline: when ctx expires
// before the reply arrives, the call returns ctx.Err() and its xid is
// abandoned — the reply reader discards the late reply when (if) it
// arrives instead of treating it as stream desync. The connection and
// the other in-flight calls are unaffected.
func (c *Client) CallContext(ctx context.Context, proc uint32, encodeArgs func(*xdr.Encoder), decodeRes func(*xdr.Decoder) error) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	pc := c.callPool.Get().(*pendingCall)
	err := c.roundTrip(ctx, pc, proc, encodeArgs, decodeRes)
	// However it ended, nothing refers to pc or its reply record now.
	if pc.buf != nil {
		c.bufPool.Put(pc.buf)
	}
	pc.rec, pc.buf, pc.err = nil, nil, nil
	c.callPool.Put(pc)
	return err
}

func (c *Client) roundTrip(ctx context.Context, pc *pendingCall, proc uint32, encodeArgs func(*xdr.Encoder), decodeRes func(*xdr.Decoder) error) error {
	// Register before writing so the reply cannot arrive unclaimed,
	// and make sure this connection has its reader to claim it.
	c.pmu.Lock()
	if c.err != nil && !c.closed && c.redial != nil {
		c.pmu.Unlock()
		if err := c.maybeRedial(); err != nil {
			return err
		}
		c.pmu.Lock()
	}
	if c.err != nil {
		defer c.pmu.Unlock()
		return c.err
	}
	xid := c.nextXID
	c.nextXID++
	c.pending[xid] = pc
	if c.reader != c.conn {
		c.reader = c.conn
		c.readers.Add(1)
		go c.readLoop(c.conn)
	}
	c.pmu.Unlock()

	c.wmu.Lock()
	conn := c.conn // a redial swaps it under wmu
	c.enc.Reset()
	// The record-marking header is encoded in-line (patched once the
	// body length is known) so a request that fits one fragment goes
	// out in a single Write — header and body coalesced into one
	// syscall instead of two.
	c.enc.PutUint32(0)
	encodeCall(&c.enc, CallHeader{XID: xid, Prog: c.prog, Vers: c.vers, Proc: proc})
	if encodeArgs != nil {
		encodeArgs(&c.enc)
	}
	var err error
	if marked := c.enc.Bytes(); len(marked)-4 <= maxFragment {
		binary.BigEndian.PutUint32(marked[0:4], uint32(len(marked)-4)|lastFragFlag)
		_, err = conn.Write(marked)
	} else {
		err = writeRecord(conn, marked[4:])
	}
	c.wmu.Unlock()
	if err != nil {
		// A failed write may have left a partial record on the wire:
		// the stream is poisoned for every call, not just this one.
		// Marking the client broken also arms the redial hook.
		c.failAll(conn, fmt.Errorf("sunrpc: send: %w", err))
		<-pc.done
		if pc.err == nil {
			// The reader resolved this call before the write error
			// surfaced; the reply is genuine, but report the failure.
			return errors.New("sunrpc: send failed after reply")
		}
		return pc.err
	}

	if ctx != nil && ctx.Done() != nil {
		select {
		case <-pc.done:
		case <-ctx.Done():
			c.pmu.Lock()
			if _, still := c.pending[xid]; still {
				// The reader has not claimed this xid (and now never
				// will): abandon it so the late reply is discarded.
				delete(c.pending, xid)
				if c.abandoned == nil {
					c.abandoned = make(map[uint32]struct{})
				} else if len(c.abandoned) >= abandonedCap {
					clear(c.abandoned)
				}
				c.abandoned[xid] = struct{}{}
				c.pmu.Unlock()
				return ctx.Err()
			}
			c.pmu.Unlock()
			// The reply raced the cancellation; use it.
			<-pc.done
		}
	} else {
		<-pc.done
	}
	if pc.err != nil {
		return pc.err
	}

	d := &pc.dec
	d.Reset(pc.rec)
	replyXID, err := decodeReply(d)
	if err == nil && replyXID != xid {
		// Cannot happen — the reader demuxed on this xid — but keep
		// the check as a cheap invariant.
		err = fmt.Errorf("%w: got %d, want %d", ErrXIDMismatch, replyXID, xid)
	}
	if err == nil && decodeRes != nil {
		err = decodeRes(d)
	}
	return err
}

// maybeRedial replaces a failed connection through the redial hook.
// It holds wmu for the duration so no writer observes the swap
// mid-record (lock order wmu, then pmu).
func (c *Client) maybeRedial() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.pmu.Lock()
	if c.err == nil {
		// Another caller already redialed while we waited on wmu.
		c.pmu.Unlock()
		return nil
	}
	if c.closed || c.redial == nil {
		err := c.err
		c.pmu.Unlock()
		return err
	}
	dial := c.redial
	old := c.conn
	c.pmu.Unlock()

	nc, err := dial()
	if err != nil {
		return fmt.Errorf("sunrpc: redial: %w", err)
	}
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		nc.Close()
		return ErrClientClosed
	}
	c.conn = nc
	c.err = nil
	c.abandoned = nil
	c.pmu.Unlock()
	if old != nil {
		old.Close()
	}
	return nil
}

// readLoop is conn's reply reader: it feeds each read through the record
// assembler and delivers every completed record, until conn fails.
func (c *Client) readLoop(conn net.Conn) {
	defer c.readers.Done()
	asm := recordAssembler{limit: DefaultMaxRecord}
	scratch := make([]byte, goReadBuf)
	var rec *[]byte // pooled; nil between records, so a parked reader holds only scratch
	for {
		var n int
		var rerr, err error
		if dst := asm.landing(rec, len(scratch)); dst != nil {
			n, rerr = conn.Read(dst)
			if asm.landed(n, rec) {
				err, rec = c.deliver(rec), nil
			}
		} else {
			n, rerr = conn.Read(scratch)
			for b := scratch[:n]; len(b) > 0 && err == nil; {
				if rec == nil {
					rec = c.bufPool.Get().(*[]byte)
					*rec = (*rec)[:0]
				}
				used, complete, ferr := asm.feed(b, rec)
				if b, err = b[used:], ferr; complete {
					err, rec = c.deliver(rec), nil
				}
			}
		}
		if err == nil && rerr != nil {
			err = fmt.Errorf("sunrpc: receive: %w", rerr)
		}
		if err != nil {
			c.failAll(conn, err)
			return
		}
	}
}

// deliver matches one reply record to its caller by xid. A non-nil
// error means the stream can no longer be trusted.
func (c *Client) deliver(bufp *[]byte) error {
	rec := *bufp
	if len(rec) < 4 {
		return fmt.Errorf("%w: reply record of %d bytes", ErrBadMessage, len(rec))
	}
	xid := binary.BigEndian.Uint32(rec[:4])

	c.pmu.Lock()
	pc, ok := c.pending[xid]
	_, late := c.abandoned[xid]
	delete(c.pending, xid)
	delete(c.abandoned, xid)
	c.pmu.Unlock()
	if ok {
		pc.rec, pc.buf = rec, bufp
		pc.done <- struct{}{}
		return nil
	}
	c.bufPool.Put(bufp)
	if late {
		// A late reply to a deadline-expired call: discard it and keep
		// reading. The stream is still in sync.
		return nil
	}
	// A reply nothing asked for means the stream is out of sync; every
	// outstanding call is now unanswerable.
	return fmt.Errorf("%w: got %d", ErrXIDMismatch, xid)
}

// failAll marks the client broken by a failure of conn and unblocks
// every outstanding call with err. The first sticky error wins: a Close
// racing a transport failure stays ErrClientClosed. A connection already
// redialed away from had its calls failed by whoever reported it first.
func (c *Client) failAll(conn net.Conn, err error) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if conn != c.conn {
		return
	}
	if c.err == nil {
		c.err = err
	}
	for xid, pc := range c.pending {
		delete(c.pending, xid)
		pc.err = err
		pc.done <- struct{}{}
	}
}

// Close closes the underlying connection, deterministically fails every
// outstanding call with ErrClientClosed — callers never block on a
// reply that will not come, even if the reader has not yet observed the
// closed connection — and waits for the reader to exit.
func (c *Client) Close() error {
	c.pmu.Lock()
	c.closed = true // no redial swaps conn from here on
	conn := c.conn
	c.pmu.Unlock()
	c.failAll(conn, ErrClientClosed)
	err := conn.Close()
	c.readers.Wait()
	return err
}
