// Package bsdpipe models a monolithic 4.3BSD pipe, the reference
// line of the paper's Figure 7: reader and writer trap into one
// kernel, which copies between their user buffers and a fixed
// in-kernel 4K pipe buffer. There is no IPC rendezvous and no
// marshaling — just two user/kernel copies per byte plus syscall
// entry work, which is why the monolithic pipe sits between the
// unoptimized and optimized decomposed implementations.
package bsdpipe

import (
	"io"
	"sync"
)

// BufferSize is the fixed 4.3BSD pipe buffer size ("in that
// implementation pipe buffers are always 4K in size").
const BufferSize = 4096

// A Pipe is a monolithic in-kernel pipe.
type Pipe struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      [BufferSize]byte
	r, count int
	wclosed  bool
}

// New creates a pipe.
func New() *Pipe {
	p := &Pipe{}
	p.notEmpty.L = &p.mu
	p.notFull.L = &p.mu
	return p
}

// trap models syscall entry/exit: a fixed amount of kernel-crossing
// bookkeeping per call, far cheaper than an IPC rendezvous.
func trap() {
	// The lock acquisition in the callers is the crossing; nothing
	// further is simulated.
}

// Write copies all of data into the pipe, blocking while full.
func (p *Pipe) Write(data []byte) (int, error) {
	trap()
	p.mu.Lock()
	defer p.mu.Unlock()
	written := 0
	for len(data) > 0 {
		for p.count == BufferSize {
			p.notFull.Wait()
		}
		n := BufferSize - p.count
		if n > len(data) {
			n = len(data)
		}
		w := (p.r + p.count) % BufferSize
		first := copy(p.buf[w:], data[:n]) // user -> kernel copy
		if first < n {
			copy(p.buf[:], data[first:n])
		}
		p.count += n
		data = data[n:]
		written += n
		p.notEmpty.Broadcast()
	}
	return written, nil
}

// Read copies up to len(dst) buffered bytes into dst, blocking while
// empty; io.EOF after CloseWrite drains.
func (p *Pipe) Read(dst []byte) (int, error) {
	trap()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.count == 0 && !p.wclosed {
		p.notEmpty.Wait()
	}
	if p.count == 0 {
		return 0, io.EOF
	}
	n := p.count
	if n > len(dst) {
		n = len(dst)
	}
	first := copy(dst[:n], p.buf[p.r:]) // kernel -> user copy
	if first < n {
		copy(dst[first:n], p.buf[:])
	}
	p.r = (p.r + n) % BufferSize
	p.count -= n
	p.notFull.Broadcast()
	return n, nil
}

// CloseWrite signals EOF.
func (p *Pipe) CloseWrite() {
	p.mu.Lock()
	p.wclosed = true
	p.mu.Unlock()
	p.notEmpty.Broadcast()
}
