// Package netpoll is a small edge-triggered readiness poller for the
// sunrpc server runtime.
//
// One Poller owns one OS readiness queue (epoll on linux) and one
// goroutine that drains it. Connections register a raw file descriptor
// together with a callback; the poller invokes the callback every time
// the descriptor transitions to readable (edge-triggered: the callback
// must drain the descriptor to EAGAIN before it can expect another
// wakeup). This inverts the classic Go goroutine-per-connection model:
// a server with 100k idle connections keeps them all parked inside a
// single epoll set instead of 100k blocked reader goroutines.
//
// The queue is nested under the Go runtime's own poller: the epoll
// descriptor is itself registered there (an epoll descriptor reads as
// ready while its set holds an event), and the goroutine polls it
// without blocking and otherwise parks in the scheduler, as a reader
// goroutine parks in conn.Read. A goroutine blocked in epoll_wait pins
// an OS thread that must win a P back on every wakeup, which on a busy
// machine cost more than the read it announced; a parked goroutine is
// resumed inline by whichever P runs out of work. A poller therefore
// costs a goroutine, not a thread.
//
// The package is deliberately x/sys-free: on linux it speaks raw
// syscall.EpollCreate1 / EpollCtl / EpollWait. On other platforms
// Supported() reports false and New returns ErrUnsupported; callers
// (internal/sunrpc) fall back to the portable goroutine-per-connection
// reader, so darwin builds and CI hosts without epoll keep passing.
//
// fd ownership: the poller never closes a registered descriptor. The
// registering side must Deregister before closing the fd — closing a
// descriptor that is still in the epoll set invites the classic
// fd-reuse race where a recycled descriptor number receives a stale
// event. Callbacks run on the poller goroutine; one that blocks holds
// up that goroutine (not a thread) and with it every other connection
// on the same poller, so they must not block indefinitely.
package netpoll

import "errors"

// ErrClosed is returned by Register/Deregister after Close.
var ErrClosed = errors.New("netpoll: poller closed")

// Supported reports whether this platform has an edge-triggered
// readiness poller (linux epoll). When false, New returns
// ErrUnsupported and callers should use a goroutine-per-connection
// fallback.
func Supported() bool { return supported }

// Callback is invoked on the poller goroutine when a registered
// descriptor becomes readable. hup reports a hangup/error condition
// (EPOLLHUP/EPOLLRDHUP/EPOLLERR); the descriptor may still have
// buffered data to drain before EOF.
type Callback func(hup bool)

// Poller owns one readiness queue and the goroutine draining it.
type Poller struct {
	poller
}

// New creates a poller and starts its event loop. onWake, if non-nil,
// is called once per wakeup with the number of connection events
// delivered in the batch — the stats hook.
func New(onWake func(events int)) (*Poller, error) {
	p := &Poller{}
	if err := p.init(onWake); err != nil {
		return nil, err
	}
	return p, nil
}
