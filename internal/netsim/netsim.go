// Package netsim shapes in-memory network connections with latency
// and bandwidth limits, standing in for the "ordinary Ethernet"
// between the Linux NFS client and the BSD file server in the
// paper's §4.1 experiment. A shaped link delays each write by a
// fixed per-message latency plus a transmission time proportional to
// the payload, so the network-plus-server portion of the measured
// time is the same across presentations — exactly as in the paper's
// Figure 2, where only the client-processing segment varies.
package netsim

import (
	"net"
	"os"
	"sync"
	"time"
)

// LinkParams describe one direction of a simulated link.
type LinkParams struct {
	// Latency is added once per Write.
	Latency time.Duration
	// Bandwidth in bytes per second; zero means unlimited.
	Bandwidth int64
}

// Ethernet10 approximates the paper's 10 Mbit/s Ethernet scaled to
// keep benchmark runtimes reasonable: the ratio of network time to
// client CPU time, not the absolute seconds, is what Figure 2
// exhibits.
var Ethernet10 = LinkParams{
	Latency:   50 * time.Microsecond,
	Bandwidth: 40 << 20, // 40 MB/s
}

// delayFor returns the transmission delay for n payload bytes.
func (p LinkParams) delayFor(n int) time.Duration {
	d := p.Latency
	if p.Bandwidth > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / p.Bandwidth)
	}
	return d
}

// shapedConn delays writes according to the link parameters.
type shapedConn struct {
	net.Conn
	params LinkParams
}

// Shape wraps c so every write pays the link's latency and
// transmission delay. Reads are unshaped: delaying the sender models
// a half-duplex link well enough for request/response traffic.
func Shape(c net.Conn, p LinkParams) net.Conn {
	if p.Latency == 0 && p.Bandwidth == 0 {
		return c
	}
	return &shapedConn{Conn: c, params: p}
}

func (s *shapedConn) Write(b []byte) (int, error) {
	preciseDelay(s.params.delayFor(len(b)))
	return s.Conn.Write(b)
}

// preciseDelay waits for d with microsecond precision: timer sleeps
// overshoot by tens of microseconds on a loaded host, which would
// drown the per-message latencies a link simulation is made of, so
// the final stretch is spun.
func preciseDelay(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	// Sleep through the coarse part, leaving the last stretch for
	// the spin loop.
	const spinWindow = 200 * time.Microsecond
	if d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(deadline) {
		// spin
	}
}

// bufferedPipe is a byte-stream pipe with an internal buffer so
// writers do not block waiting for the reader, closer to a kernel
// socket buffer than net.Pipe's synchronous rendezvous.
type bufferedPipe struct {
	ch        chan []byte
	rest      []byte
	closed    chan struct{}
	closeOnce sync.Once
}

func (bp *bufferedPipe) close() {
	bp.closeOnce.Do(func() { close(bp.closed) })
}

// BufferedPipe returns an in-memory duplex stream with depth
// messages of write buffering per direction, shaped by p. It is
// useful when client and server would otherwise deadlock on
// synchronous writes. Its ends honour read and write deadlines as a
// net.Conn must.
func BufferedPipe(p LinkParams, depth int) (client, server net.Conn) {
	ab := &bufferedPipe{ch: make(chan []byte, depth), closed: make(chan struct{})}
	ba := &bufferedPipe{ch: make(chan []byte, depth), closed: make(chan struct{})}
	c := &pipeEnd{r: ba, w: ab, rd: newDeadline(), wd: newDeadline()}
	s := &pipeEnd{r: ab, w: ba, rd: newDeadline(), wd: newDeadline()}
	return Shape(c, p), Shape(s, p)
}

type pipeEnd struct {
	r, w   *bufferedPipe
	rd, wd *deadline
}

// A deadline is one direction's deadline as a channel that is closed
// once it passes. Moving the deadline re-arms its timer: a call
// blocked on the channel wakes when the deadline moves into the past
// and keeps waiting when it moves into the future.
type deadline struct {
	mu      sync.Mutex
	timer   *time.Timer
	expired chan struct{}
}

func newDeadline() *deadline { return &deadline{expired: make(chan struct{})} }

// set moves the deadline to t; the zero time means none.
func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil && !d.timer.Stop() {
		<-d.expired // the timer fired: wait for it to close the channel
	}
	d.timer = nil
	if isClosed(d.expired) {
		d.expired = make(chan struct{})
	}
	if t.IsZero() {
		return
	}
	if wait := time.Until(t); wait > 0 {
		expired := d.expired
		d.timer = time.AfterFunc(wait, func() { close(expired) })
		return
	}
	close(d.expired)
}

// done returns the channel that is closed once the current deadline
// passes.
func (d *deadline) done() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.expired
}

func isClosed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

func (e *pipeEnd) Read(b []byte) (int, error) {
	bp := e.r
	expired := e.rd.done()
	if isClosed(expired) {
		return 0, os.ErrDeadlineExceeded
	}
	if len(bp.rest) == 0 {
		select {
		case data, ok := <-bp.ch:
			if !ok {
				return 0, net.ErrClosed
			}
			bp.rest = data
		case <-bp.closed:
			// Drain anything written before close.
			select {
			case data, ok := <-bp.ch:
				if !ok {
					return 0, net.ErrClosed
				}
				bp.rest = data
			default:
				return 0, net.ErrClosed
			}
		case <-expired:
			return 0, os.ErrDeadlineExceeded
		}
	}
	n := copy(b, bp.rest)
	bp.rest = bp.rest[n:]
	return n, nil
}

func (e *pipeEnd) Write(b []byte) (int, error) {
	expired := e.wd.done()
	select {
	case <-e.w.closed:
		return 0, net.ErrClosed
	case <-expired:
		return 0, os.ErrDeadlineExceeded
	default:
	}
	data := make([]byte, len(b))
	copy(data, b)
	select {
	case e.w.ch <- data:
		return len(b), nil
	case <-e.w.closed:
		return 0, net.ErrClosed
	case <-expired:
		return 0, os.ErrDeadlineExceeded
	}
}

func (e *pipeEnd) Close() error {
	e.w.close()
	e.r.close()
	return nil
}

func (e *pipeEnd) LocalAddr() net.Addr  { return pipeAddr{} }
func (e *pipeEnd) RemoteAddr() net.Addr { return pipeAddr{} }

func (e *pipeEnd) SetDeadline(t time.Time) error {
	e.rd.set(t)
	e.wd.set(t)
	return nil
}

func (e *pipeEnd) SetReadDeadline(t time.Time) error  { e.rd.set(t); return nil }
func (e *pipeEnd) SetWriteDeadline(t time.Time) error { e.wd.set(t); return nil }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "netsim" }
func (pipeAddr) String() string  { return "netsim" }
