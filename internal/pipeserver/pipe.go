// Package pipeserver implements the paper's §4.2 pipe server: Unix
// pipe semantics (a fixed circular buffer, blocking flow control,
// EOF/EPIPE) provided by an RPC server outside the Unix server, as
// in the authors' modified Lites. The read path adapts to the
// server's presentation: under the default CORBA move semantics the
// work function must copy data out of the circular buffer into a
// fresh buffer for every read; under [dealloc(never)] (the paper's
// Figure 5) it returns a slice of the circular buffer itself and
// commits consumption after the stub has marshaled the reply.
package pipeserver

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Write after the read side closed (EPIPE).
var ErrClosed = errors.New("pipeserver: read side closed")

// A Pipe is the server's storage: a permanently allocated,
// fixed-length circular buffer with Unix pipe flow control.
type Pipe struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []byte
	r        int // read offset
	count    int // valid bytes
	wclosed  bool
	rclosed  bool

	// readCopies counts the allocate-and-copy reads the default
	// presentation forces; zero-copy reads do not increment it.
	// This is the mechanism behind Figure 6, exposed for tests.
	readCopies atomic.Uint64
}

// NewPipe creates a pipe with an n-byte buffer.
func NewPipe(n int) *Pipe {
	p := &Pipe{buf: make([]byte, n)}
	p.notEmpty.L = &p.mu
	p.notFull.L = &p.mu
	return p
}

// Write appends all of data, blocking while the buffer is full. It
// returns ErrClosed if the read side is closed (EPIPE), reporting
// how many bytes were accepted first.
func (p *Pipe) Write(data []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	written := 0
	for len(data) > 0 {
		for p.count == len(p.buf) && !p.rclosed {
			p.notFull.Wait()
		}
		if p.rclosed {
			return written, ErrClosed
		}
		n := len(p.buf) - p.count
		if n > len(data) {
			n = len(data)
		}
		w := (p.r + p.count) % len(p.buf)
		first := copy(p.buf[w:], data[:n])
		if first < n {
			copy(p.buf, data[first:n])
		}
		p.count += n
		data = data[n:]
		written += n
		p.notEmpty.Broadcast()
	}
	return written, nil
}

// waitReadable blocks until data is buffered or the write side has
// closed, returning (available bytes, eof). Caller holds p.mu.
func (p *Pipe) waitReadable() (int, bool) {
	for p.count == 0 && !p.wclosed {
		p.notEmpty.Wait()
	}
	if p.count == 0 {
		return 0, true
	}
	return p.count, false
}

// ReadCopy removes up to max bytes, copying them into freshly
// allocated storage — the read path the default presentation forces
// on the work function. At EOF it returns io.EOF.
func (p *Pipe) ReadCopy(max int) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, eof := p.waitReadable()
	if eof {
		return nil, io.EOF
	}
	if n > max {
		n = max
	}
	out := make([]byte, n)
	first := copy(out, p.buf[p.r:])
	if first < n {
		copy(out[first:], p.buf)
	}
	p.consumeLocked(n)
	p.readCopies.Add(1)
	return out, nil
}

// PeekZeroCopy blocks until readable and returns a view of up to max
// buffered bytes without consuming them. When the data wraps around
// the end of the circular buffer the view covers only the contiguous
// head and wrapped reports the rest — the case the paper's pipe
// server still copies. The view is valid until Consume.
func (p *Pipe) PeekZeroCopy(max int) (view []byte, wrapped bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, eof := p.waitReadable()
	if eof {
		return nil, false, io.EOF
	}
	if n > max {
		n = max
	}
	run := len(p.buf) - p.r
	if run >= n {
		return p.buf[p.r : p.r+n : p.r+n], false, nil
	}
	return p.buf[p.r : p.r+run : p.r+run], true, nil
}

// Consume removes n bytes that a PeekZeroCopy view exposed; the
// [dealloc(never)] server calls it after the stub has marshaled the
// reply.
func (p *Pipe) Consume(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.consumeLocked(n)
}

func (p *Pipe) consumeLocked(n int) {
	if n > p.count {
		n = p.count
	}
	p.r = (p.r + n) % len(p.buf)
	p.count -= n
	p.notFull.Broadcast()
}

// CloseWrite signals EOF to readers once the buffer drains.
func (p *Pipe) CloseWrite() {
	p.mu.Lock()
	p.wclosed = true
	p.mu.Unlock()
	p.notEmpty.Broadcast()
}

// CloseRead makes subsequent writes fail with ErrClosed.
func (p *Pipe) CloseRead() {
	p.mu.Lock()
	p.rclosed = true
	p.mu.Unlock()
	p.notFull.Broadcast()
}
