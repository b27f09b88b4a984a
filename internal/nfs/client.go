package nfs

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flexrpc/internal/kernbuf"
	"flexrpc/internal/runtime"
	"flexrpc/internal/sunrpc"
	"flexrpc/internal/transport/suntcp"
	"flexrpc/internal/xdr"
)

// A ReadClient is one NFS client stub variant. ReadAt reads count
// bytes at fileOff from the exported file into the user buffer at
// dstOff, through whatever copy path the variant's presentation
// implies.
type ReadClient interface {
	ReadAt(dst *kernbuf.UserBuffer, dstOff int, fileOff, count uint32) (int, error)
	Stats() Stats
	Name() string
}

// Stats separates the two segments of Figure 2's bars.
type Stats struct {
	// TotalNanos is wall time spent in ReadAt.
	TotalNanos int64
	// NetServerNanos is the portion spent blocked on the network
	// connection (transmission + server processing) — the left,
	// invariant part of each bar.
	NetServerNanos int64
	// Meter counts the copies each path performed.
	Meter kernbuf.Snapshot
}

// ClientNanos returns the client-processing segment: marshaling,
// unmarshaling, buffer management and user-space copies.
func (s Stats) ClientNanos() int64 { return s.TotalNanos - s.NetServerNanos }

// timedConn accumulates the time calls spend blocked in the connection,
// which under a shaped link is network transmission plus server time.
// The Sun RPC client's reply reader is parked in Read long before the
// request is marshaled, so a Read counts only from the start of the
// latest Write — the reply cannot have been on its way any earlier — and
// where it then overlaps that Write the overlap is counted once.
type timedConn struct {
	net.Conn
	nanos *atomic.Int64

	wstart  atomic.Int64 // start of the latest Write, on timedEpoch's clock
	mu      sync.Mutex
	counted int64 // end of the latest interval added to nanos
}

var timedEpoch = time.Now()

// count adds what [start, now) holds beyond the time already counted.
func (c *timedConn) count(start int64) {
	end := int64(time.Since(timedEpoch))
	c.mu.Lock()
	if start = max(start, c.counted); end > start {
		c.nanos.Add(end - start)
		c.counted = end
	}
	c.mu.Unlock()
}

func (c *timedConn) Write(b []byte) (int, error) {
	t0 := int64(time.Since(timedEpoch))
	c.wstart.Store(t0)
	n, err := c.Conn.Write(b)
	c.count(t0)
	return n, err
}

func (c *timedConn) Read(b []byte) (int, error) {
	t0 := int64(time.Since(timedEpoch))
	n, err := c.Conn.Read(b)
	c.count(max(t0, c.wstart.Load()))
	return n, err
}

// ErrServer reports a non-OK NFS status.
type ErrServer struct{ Stat uint32 }

func (e *ErrServer) Error() string { return fmt.Sprintf("nfs: server status %d", e.Stat) }

// --- Generated-stub clients (conventional and [special]) ---

// readTarget is the per-call destination the [special] unmarshal
// hook lands data in.
type readTarget struct {
	ub  *kernbuf.UserBuffer
	off int
}

// specialResult is the local value the [special] hook produces for
// the read result: the data bytes are already in user space.
type specialResult struct {
	status int32
	attr   Attr
	n      int
}

// genHooks implements the Figure 1 presentation: unmarshal the read
// data directly into the user buffer with the kernel's copy-out
// routine instead of the normal memcpy.
type genHooks struct {
	meter  *kernbuf.Meter
	target readTarget
}

func (h *genHooks) EncodeSpecial(op, param string, enc runtime.Encoder, v runtime.Value) error {
	return fmt.Errorf("nfs: unexpected special encode of %s.%s", op, param)
}

func (h *genHooks) DecodeSpecial(op, param string, dec runtime.Decoder) (runtime.Value, error) {
	var res specialResult
	var err error
	if res.status, err = dec.Int32(); err != nil {
		return nil, err
	}
	for _, p := range []*uint32{&res.attr.FileID, &res.attr.Size, &res.attr.BlockSize, &res.attr.MTime} {
		if *p, err = dec.Uint32(); err != nil {
			return nil, err
		}
	}
	// The wire data, copied exactly once: straight to user space.
	wire, err := dec.Bytes()
	if err != nil {
		return nil, err
	}
	if err := h.meter.CopyToUser(h.target.ub, h.target.off, wire); err != nil {
		return nil, err
	}
	res.n = len(wire)
	return &res, nil
}

// GenClient is a generated-stub client; special selects the
// user-space buffer presentation.
type GenClient struct {
	client   *runtime.Client
	meter    *kernbuf.Meter
	hooks    *genHooks
	special  bool
	netNanos atomic.Int64
	total    atomic.Int64
	fh       FH
}

// NewGenClient builds a generated-stub client over conn.
func NewGenClient(conn net.Conn, special bool) (*GenClient, error) {
	compiled, err := Compile()
	if err != nil {
		return nil, err
	}
	g := &GenClient{meter: &kernbuf.Meter{}, special: special, fh: RootFH()}
	p := compiled.Pres
	var hooks runtime.SpecialHooks
	if special {
		sc, err := compiled.WithPDL("nfs-special.pdl", SpecialPDL)
		if err != nil {
			return nil, err
		}
		p = sc.Pres
		g.hooks = &genHooks{meter: g.meter}
		hooks = g.hooks
	}
	tc := &timedConn{Conn: conn, nanos: &g.netNanos}
	g.client, err = runtime.NewClient(p, runtime.XDRCodec, suntcp.Dial(tc, p), hooks)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Name identifies the variant in reports.
func (g *GenClient) Name() string {
	if g.special {
		return "generated/user-buffer"
	}
	return "generated/conventional"
}

// Stats returns the accumulated timing split.
func (g *GenClient) Stats() Stats {
	return Stats{
		TotalNanos:     g.total.Load(),
		NetServerNanos: g.netNanos.Load(),
		Meter:          g.meter.Snapshot(),
	}
}

// ReadAt performs one NFS read through the generated stubs.
func (g *GenClient) ReadAt(dst *kernbuf.UserBuffer, dstOff int, fileOff, count uint32) (int, error) {
	t0 := time.Now()
	defer func() { g.total.Add(time.Since(t0).Nanoseconds()) }()

	args := []runtime.Value{ // readargs struct
		g.fh[:], fileOff, count, count,
	}
	if g.special {
		g.hooks.target = readTarget{ub: dst, off: dstOff}
		_, ret, err := g.client.Invoke("NFSPROC_READ", []runtime.Value{args}, nil, nil)
		if err != nil {
			return 0, err
		}
		res := ret.(*specialResult)
		if res.status != StatOK {
			return 0, &ErrServer{Stat: uint32(res.status)}
		}
		return res.n, nil
	}
	// Conventional presentation: the stub unmarshals the data into
	// an intermediate kernel buffer; the client then copies it out
	// to user space.
	_, ret, err := g.client.Invoke("NFSPROC_READ", []runtime.Value{args}, nil, nil)
	if err != nil {
		return 0, err
	}
	res := ret.([]runtime.Value)
	status := res[0].(int32)
	if status != StatOK {
		return 0, &ErrServer{Stat: uint32(status)}
	}
	kernelBuf := res[2].([]byte)
	if err := g.meter.CopyToUser(dst, dstOff, kernelBuf); err != nil {
		return 0, err
	}
	return len(kernelBuf), nil
}

// --- Hand-coded clients (the original Linux approach) ---

// HandClient is the manually written Sun RPC stub pair, mirroring
// the kernel stubs Linux used instead of rpcgen output.
type HandClient struct {
	rpc      *sunrpc.Client
	meter    *kernbuf.Meter
	special  bool
	netNanos atomic.Int64
	total    atomic.Int64
	fh       FH
}

// NewHandClient builds a hand-coded client over conn.
func NewHandClient(conn net.Conn, special bool) *HandClient {
	h := &HandClient{meter: &kernbuf.Meter{}, special: special, fh: RootFH()}
	tc := &timedConn{Conn: conn, nanos: &h.netNanos}
	h.rpc = sunrpc.NewClient(tc, 100003, 2)
	return h
}

// Name identifies the variant in reports.
func (h *HandClient) Name() string {
	if h.special {
		return "hand-coded/user-buffer"
	}
	return "hand-coded/conventional"
}

// Stats returns the accumulated timing split.
func (h *HandClient) Stats() Stats {
	return Stats{
		TotalNanos:     h.total.Load(),
		NetServerNanos: h.netNanos.Load(),
		Meter:          h.meter.Snapshot(),
	}
}

// ReadAt performs one NFS read through the hand-written stubs.
func (h *HandClient) ReadAt(dst *kernbuf.UserBuffer, dstOff int, fileOff, count uint32) (int, error) {
	t0 := time.Now()
	defer func() { h.total.Add(time.Since(t0).Nanoseconds()) }()

	var n int
	err := h.rpc.Call(ProcRead,
		func(e *xdr.Encoder) {
			e.PutFixedOpaque(h.fh[:])
			e.PutUint32(fileOff)
			e.PutUint32(count)
			e.PutUint32(count)
		},
		func(d *xdr.Decoder) error {
			status, err := d.Uint32()
			if err != nil {
				return err
			}
			for i := 0; i < 4; i++ { // fattr
				if _, err := d.Uint32(); err != nil {
					return err
				}
			}
			if status != StatOK {
				return &ErrServer{Stat: status}
			}
			wire, err := d.Opaque()
			if err != nil {
				return err
			}
			if h.special {
				// User-space buffer presentation: one copy,
				// wire straight to the user buffer.
				if err := h.meter.CopyToUser(dst, dstOff, wire); err != nil {
					return err
				}
				n = len(wire)
				return nil
			}
			// Conventional: intermediate kernel buffer, then the
			// copy out to user space.
			kernelBuf := make([]byte, len(wire))
			h.meter.KernelCopy(kernelBuf, wire)
			if err := h.meter.CopyToUser(dst, dstOff, kernelBuf); err != nil {
				return err
			}
			n = len(kernelBuf)
			return nil
		})
	return n, err
}
