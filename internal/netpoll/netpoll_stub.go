//go:build !linux

package netpoll

import "errors"

// Portable stub: platforms without epoll report Supported() == false
// and New fails with ErrUnsupported. internal/sunrpc detects this at
// runtime and serves netpoll-mode connections with the classic
// goroutine-per-connection reader instead, so the public semantics
// (SetNetpoll, Drain, reply combining) are identical everywhere — only
// the idle-connection cost differs.

const supported = false

// ErrUnsupported is returned by New on platforms without an
// edge-triggered readiness facility.
var ErrUnsupported = errors.New("netpoll: not supported on this platform")

type poller struct{}

func (p *poller) init(onWake func(int)) error { return ErrUnsupported }
func (p *poller) Register(fd int, cb Callback) error {
	return ErrUnsupported
}
func (p *poller) Deregister(fd int) error { return ErrUnsupported }
func (p *poller) Close() error            { return nil }
func (p *poller) Done() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}
