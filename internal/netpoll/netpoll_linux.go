//go:build linux

package netpoll

import (
	"fmt"
	"os"
	"sync"
	"syscall"
)

const supported = true

// epollET is EPOLLET as a uint32 bit. syscall.EPOLLET is declared as a
// negative int (-0x80000000) because the kernel flag occupies the sign
// bit of the 32-bit events word; redeclare it unsigned so it composes
// with the other flags without a conversion dance.
const epollET = uint32(1) << 31

type poller struct {
	// epf owns the epoll descriptor. It is non-blocking, so os.NewFile
	// registers it with the Go runtime's own poller (epoll sets nest:
	// an epoll descriptor reads as ready while its set holds an event)
	// and rc.Read can park the loop goroutine on it.
	epf *os.File
	rc  syscall.RawConn

	onWake func(int)

	mu    sync.Mutex
	ready map[int]Callback

	done chan struct{} // closed when the event loop exits
}

func (p *poller) init(onWake func(int)) error {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return fmt.Errorf("netpoll: epoll_create1: %w", err)
	}
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		return fmt.Errorf("netpoll: set nonblock: %w", err)
	}
	p.epf = os.NewFile(uintptr(epfd), "netpoll")
	if p.rc, err = p.epf.SyscallConn(); err != nil {
		p.epf.Close()
		return fmt.Errorf("netpoll: %w", err)
	}
	p.onWake = onWake
	p.ready = make(map[int]Callback)
	p.done = make(chan struct{})
	go p.loop()
	return nil
}

// ctl runs epoll_ctl (what names op in the error) on the poller's
// descriptor through epf, which pins it for the duration of the call:
// after Close it reports ErrClosed instead of reaching a recycled
// descriptor number.
func (p *poller) ctl(what string, op, fd int, ev *syscall.EpollEvent) error {
	var err error
	if p.rc.Control(func(epfd uintptr) { err = syscall.EpollCtl(int(epfd), op, fd, ev) }) != nil {
		return ErrClosed
	}
	if err != nil {
		return fmt.Errorf("netpoll: epoll_ctl %s fd %d: %w", what, fd, err)
	}
	return nil
}

// Register adds fd to the epoll set, edge-triggered, with hangup
// notification. The callback fires on every readable edge; data that
// arrived before Register is NOT reported (no edge), so callers must
// attempt one read immediately after registering.
func (p *poller) Register(fd int, cb Callback) error {
	// Table entry first: the edge can fire the instant EpollCtl
	// returns, on the poller goroutine, and must find its callback.
	p.mu.Lock()
	p.ready[fd] = cb
	p.mu.Unlock()

	ev := syscall.EpollEvent{
		Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | epollET,
		Fd:     int32(fd),
	}
	err := p.ctl("add", syscall.EPOLL_CTL_ADD, fd, &ev)
	if err != nil {
		p.mu.Lock()
		delete(p.ready, fd)
		p.mu.Unlock()
	}
	return err
}

// Deregister removes fd from the epoll set. Call before closing the
// descriptor. Stale events already in flight become no-ops (the table
// lookup misses).
func (p *poller) Deregister(fd int) error {
	p.mu.Lock()
	delete(p.ready, fd)
	p.mu.Unlock()
	return p.ctl("del", syscall.EPOLL_CTL_DEL, fd, nil)
}

// Close stops the event loop and releases the epoll descriptor:
// closing epf evicts a loop parked in rc.Read, and a loop that is
// inside a callback finds the file closed on its next wait. Close does
// not wait for an in-flight callback: one blocked handing work
// downstream must be unblocked by its own shutdown path (the sunrpc
// server drains its worker pool first). Closing twice is harmless.
func (p *poller) Close() error {
	p.epf.Close()
	return nil
}

// Done is closed when the event loop goroutine has exited; the epoll
// descriptor is released by then.
func (p *poller) Done() <-chan struct{} { return p.done }

func (p *poller) loop() {
	defer close(p.done)
	events := make([]syscall.EpollEvent, 128)
	var n int
	var err error
	// wait polls the set without blocking; when it reports false,
	// rc.Read parks this goroutine in the runtime poller until the set
	// has an edge, as conn.Read parks a reader goroutine. Built once: a
	// closure per iteration would allocate on every wakeup.
	wait := func(epfd uintptr) bool {
		for {
			n, err = syscall.EpollWait(int(epfd), events, 0)
			if err != syscall.EINTR {
				return n != 0 || err != nil
			}
		}
	}
	for {
		// Read fails once Close has closed epf.
		if p.rc.Read(wait) != nil || err != nil {
			return
		}
		conns := 0
		for i := 0; i < n; i++ {
			p.mu.Lock()
			cb := p.ready[int(events[i].Fd)]
			p.mu.Unlock()
			if cb != nil {
				conns++
				hup := events[i].Events&(syscall.EPOLLHUP|syscall.EPOLLRDHUP|syscall.EPOLLERR) != 0
				cb(hup)
			}
		}
		if conns > 0 && p.onWake != nil {
			p.onWake(conns)
		}
	}
}
