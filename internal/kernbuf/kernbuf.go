// Package kernbuf simulates the user/kernel address-space split of a
// monolithic Unix kernel, the substrate of the paper's §4.1 Linux
// NFS experiment. A UserBuffer stands for memory in a user process;
// kernel code may touch it only through CopyToUser — the equivalent
// of Linux's memcpy_tofs() — which validates the access and counts
// the work done (the experiment only reads). Kernel-internal
// copies go through KernelCopy so the two NFS stub variants can be
// compared copy-for-copy: the conventional presentation unmarshals
// into an intermediate kernel buffer and then copies out to user
// space, while the [special] presentation unmarshals straight into
// the user buffer.
package kernbuf

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Common errors.
var (
	// ErrFault is returned when a user-space access falls outside
	// the buffer — the moral equivalent of EFAULT.
	ErrFault = errors.New("kernbuf: bad user-space address")
)

// A Meter counts address-space crossings and kernel-internal copies,
// so tests and the experiment harness can assert exactly how many
// copies each presentation performs.
type Meter struct {
	userCopies atomic.Uint64
	userBytes  atomic.Uint64
	kernCopies atomic.Uint64
	kernBytes  atomic.Uint64
}

// Snapshot is a point-in-time reading of a Meter.
type Snapshot struct {
	UserCopies   uint64 // user<->kernel crossings
	UserBytes    uint64
	KernelCopies uint64 // kernel-internal copies
	KernelBytes  uint64
}

// Snapshot returns the meter's current counts.
func (m *Meter) Snapshot() Snapshot {
	return Snapshot{
		UserCopies:   m.userCopies.Load(),
		UserBytes:    m.userBytes.Load(),
		KernelCopies: m.kernCopies.Load(),
		KernelBytes:  m.kernBytes.Load(),
	}
}

// A UserBuffer is a region of user-process memory. Kernel code must
// not touch mem directly; it goes through the copy routines below.
type UserBuffer struct {
	mem []byte
}

// NewUserBuffer allocates an n-byte user buffer.
func NewUserBuffer(n int) *UserBuffer {
	return &UserBuffer{mem: make([]byte, n)}
}

// UserView returns the buffer contents as seen by the user process
// itself (for test assertions; kernel code must not call this).
func (u *UserBuffer) UserView() []byte { return u.mem }

// access validates an [off, off+n) range, the access_ok() check.
func (u *UserBuffer) access(off, n int) error {
	if off < 0 || n < 0 || off+n > len(u.mem) {
		return fmt.Errorf("%w: off=%d n=%d size=%d", ErrFault, off, n, len(u.mem))
	}
	return nil
}

// CopyToUser copies src into the user buffer at off — the simulated
// memcpy_tofs(). It validates the range and meters the crossing.
func (m *Meter) CopyToUser(dst *UserBuffer, off int, src []byte) error {
	if err := dst.access(off, len(src)); err != nil {
		return err
	}
	copy(dst.mem[off:], src)
	m.userCopies.Add(1)
	m.userBytes.Add(uint64(len(src)))
	return nil
}

// KernelCopy is a metered kernel-internal memcpy.
func (m *Meter) KernelCopy(dst, src []byte) int {
	n := copy(dst, src)
	m.kernCopies.Add(1)
	m.kernBytes.Add(uint64(n))
	return n
}
