// Package fbuf simulates the fbufs high-bandwidth cross-domain
// transfer facility of Druschel and Peterson, the substrate of the
// paper's §4.3 experiment: buffers from a path-shared pool travel
// through many protection domains without copying or remapping,
// under strict access rules — senders must produce data directly
// into pool buffers, ownership moves along the path, and volatile
// buffers leave the originator with read access while downstream
// domains process them.
//
// As in the paper's own reimplementation, all creation and
// manipulation facilities live in user space; only control transfer
// goes through IPC. The simulation enforces the access rules the
// real system got from VM protections, so misuse is an error here
// rather than a fault.
package fbuf

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Common errors.
var (
	ErrPoolExhausted = errors.New("fbuf: pool exhausted")
	ErrNotOnPath     = errors.New("fbuf: domain is not on the buffer's path")
	ErrNotOwner      = errors.New("fbuf: domain does not own the buffer")
	ErrFreed         = errors.New("fbuf: buffer already freed")
	ErrBadID         = errors.New("fbuf: unknown buffer id")
)

// A Domain is one protection domain on a data path.
type Domain struct {
	name string
}

// NewDomain creates a named protection domain.
func NewDomain(name string) *Domain { return &Domain{name: name} }

func (d *Domain) String() string { return "domain(" + d.name + ")" }

// A Path is a semi-fixed sequence of domains sharing one buffer
// pool; buffers allocated on the path may be transferred between any
// two of its domains without copying.
type Path struct {
	domains  []*Domain
	mu       sync.Mutex
	freeCond sync.Cond
	bufSize  int
	free     []*Buffer
	byID     map[uint32]*Buffer
	nextID   uint32
}

// NewPath creates a data path through the given domains, backed by a
// pool of count buffers of bufSize bytes each.
func NewPath(bufSize, count int, domains ...*Domain) *Path {
	p := &Path{
		domains: append([]*Domain(nil), domains...),
		bufSize: bufSize,
		byID:    make(map[uint32]*Buffer),
	}
	p.freeCond.L = &p.mu
	for i := 0; i < count; i++ {
		p.nextID++
		b := &Buffer{
			id:      p.nextID,
			path:    p,
			storage: make([]byte, bufSize),
		}
		p.free = append(p.free, b)
		p.byID[b.id] = b
	}
	return p
}

// BufSize returns the pool's fixed buffer size.
func (p *Path) BufSize() int { return p.bufSize }

// onPath reports whether d participates in the path.
func (p *Path) onPath(d *Domain) bool {
	for _, pd := range p.domains {
		if pd == d {
			return true
		}
	}
	return false
}

// Alloc hands a pool buffer to origin, which becomes its owner. The
// buffer starts empty (length zero, capacity BufSize).
func (p *Path) Alloc(origin *Domain) (*Buffer, error) {
	if !p.onPath(origin) {
		return nil, fmt.Errorf("%w: %v", ErrNotOnPath, origin)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		return nil, ErrPoolExhausted
	}
	return p.takeLocked(origin), nil
}

// AllocBlocking is Alloc, but waits for a buffer to be freed when
// the pool is empty — producers throttled by pool pressure, as in
// the original system.
func (p *Path) AllocBlocking(origin *Domain) (*Buffer, error) {
	if !p.onPath(origin) {
		return nil, fmt.Errorf("%w: %v", ErrNotOnPath, origin)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.free) == 0 {
		p.freeCond.Wait()
	}
	return p.takeLocked(origin), nil
}

// AllocBlockingContext is AllocBlocking bounded by a context: when
// the pool is empty the caller waits for a Free, but no longer than
// ctx allows, so a full ring respects the caller's deadline instead
// of parking forever. A nil ctx behaves like AllocBlocking.
func (p *Path) AllocBlockingContext(ctx context.Context, origin *Domain) (*Buffer, error) {
	if ctx == nil {
		return p.AllocBlocking(origin)
	}
	if !p.onPath(origin) {
		return nil, fmt.Errorf("%w: %v", ErrNotOnPath, origin)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Wake every cond waiter when the context fires; waiters that are
	// not ours recheck their own predicates and go back to sleep.
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.freeCond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.free) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p.freeCond.Wait()
	}
	return p.takeLocked(origin), nil
}

func (p *Path) takeLocked(origin *Domain) *Buffer {
	n := len(p.free)
	b := p.free[n-1]
	p.free = p.free[:n-1]
	// b.mu, not just p.mu: a domain holding a stale handle to this
	// buffer may probe it concurrently (and be told ErrFreed or
	// ErrNotOwner) — the access check must never be a data race.
	// Safe order: no path holds b.mu while acquiring p.mu.
	b.mu.Lock()
	b.owner = origin
	b.origin = origin
	b.length = 0
	b.volatileBuf = false
	b.freed = false
	b.mu.Unlock()
	return b
}

// ByID resolves a buffer id received through a control message; the
// receiving domain must be on the path.
func (p *Path) ByID(d *Domain, id uint32) (*Buffer, error) {
	if !p.onPath(d) {
		return nil, fmt.Errorf("%w: %v", ErrNotOnPath, d)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.byID[id]
	if !ok {
		return nil, ErrBadID
	}
	return b, nil
}

// A Buffer is one fbuf: fixed storage from the pool plus ownership
// and access state.
type Buffer struct {
	id          uint32
	path        *Path
	storage     []byte
	length      int
	owner       *Domain
	origin      *Domain
	volatileBuf bool
	freed       bool
	mu          sync.Mutex
}

// ID returns the buffer's path-wide identifier, the value carried in
// control messages.
func (b *Buffer) ID() uint32 { return b.id }

// Len returns the number of valid bytes in the buffer.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.length
}

// Produce appends data into the buffer. Only the owner may produce,
// and only up to the pool's buffer size: fbuf senders must generate
// data in the special buffers, they cannot splice in malloc'd
// memory.
func (b *Buffer) Produce(d *Domain, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.freed {
		return ErrFreed
	}
	if d != b.owner {
		return fmt.Errorf("%w: %v (owner %v)", ErrNotOwner, d, b.owner)
	}
	if b.length+len(data) > len(b.storage) {
		return fmt.Errorf("fbuf: produce of %d bytes overflows %d-byte buffer at offset %d",
			len(data), len(b.storage), b.length)
	}
	copy(b.storage[b.length:], data)
	b.length += len(data)
	return nil
}

// Arena exposes the buffer's full backing storage to its owner for
// in-place production: a marshaler may encode directly into the
// returned slice instead of staging bytes elsewhere and paying
// Produce's copy — the pool is the arena. Only the owner may take the
// arena; after writing, SetProduced declares how many bytes are
// valid. The slice is invalidated by Free.
func (b *Buffer) Arena(d *Domain) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.freed {
		return nil, ErrFreed
	}
	if d != b.owner {
		return nil, fmt.Errorf("%w: %v (owner %v)", ErrNotOwner, d, b.owner)
	}
	return b.storage, nil
}

// SetProduced declares that the owner produced n valid bytes in place
// through Arena, replacing any previous contents.
func (b *Buffer) SetProduced(d *Domain, n int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.freed {
		return ErrFreed
	}
	if d != b.owner {
		return fmt.Errorf("%w: %v (owner %v)", ErrNotOwner, d, b.owner)
	}
	if n < 0 || n > len(b.storage) {
		return fmt.Errorf("fbuf: produced length %d outside [0, %d]", n, len(b.storage))
	}
	b.length = n
	return nil
}

// Bytes exposes the buffer's valid contents to domain d for reading.
// The owner may always read; after a volatile transfer the
// originator retains read access while downstream domains process
// the data (the paper's second optimization class).
func (b *Buffer) Bytes(d *Domain) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.freed {
		return nil, ErrFreed
	}
	if d != b.owner && !(b.volatileBuf && d == b.origin) {
		return nil, fmt.Errorf("%w: %v (owner %v)", ErrNotOwner, d, b.owner)
	}
	return b.storage[:b.length:b.length], nil
}

// Transfer moves ownership from from to to without copying. Both
// domains must be on the path. If volatile is true the originating
// domain retains read access during downstream processing.
func (b *Buffer) Transfer(from, to *Domain, volatile bool) error {
	if !b.path.onPath(to) {
		return fmt.Errorf("%w: %v", ErrNotOnPath, to)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.freed {
		return ErrFreed
	}
	if from != b.owner {
		return fmt.Errorf("%w: %v (owner %v)", ErrNotOwner, from, b.owner)
	}
	b.owner = to
	b.volatileBuf = volatile
	return nil
}

// Free returns the buffer to the pool. Only the owner may free.
func (b *Buffer) Free(d *Domain) error {
	b.mu.Lock()
	if b.freed {
		b.mu.Unlock()
		return ErrFreed
	}
	if d != b.owner {
		owner := b.owner
		b.mu.Unlock()
		return fmt.Errorf("%w: %v (owner %v)", ErrNotOwner, d, owner)
	}
	b.freed = true
	b.owner = nil
	b.origin = nil
	b.length = 0
	b.mu.Unlock()

	p := b.path
	p.mu.Lock()
	p.free = append(p.free, b)
	p.freeCond.Signal()
	p.mu.Unlock()
	return nil
}

// An Aggregate is a logical message spliced together from fbuf
// segments, possibly produced by different domains along the path —
// the paper's "complex messages composed and split apart along the
// path".
type Aggregate struct {
	segs []*Buffer
}

// NewAggregate creates an aggregate from the given segments.
func NewAggregate(segs ...*Buffer) *Aggregate {
	return &Aggregate{segs: append([]*Buffer(nil), segs...)}
}

// Append splices a segment onto the end.
func (a *Aggregate) Append(b *Buffer) { a.segs = append(a.segs, b) }

// Len returns the total valid bytes across all segments.
func (a *Aggregate) Len() int {
	n := 0
	for _, s := range a.segs {
		n += s.Len()
	}
	return n
}

// Gather copies the aggregate's contents into dst on behalf of
// domain d (which needs read access to every segment) and reports
// the number of bytes copied. This is the endpoint copy a
// standard-presentation client pays to get data out of the fbuf
// world.
func (a *Aggregate) Gather(d *Domain, dst []byte) (int, error) {
	off := 0
	for _, s := range a.segs {
		data, err := s.Bytes(d)
		if err != nil {
			return off, err
		}
		off += copy(dst[off:], data)
	}
	return off, nil
}
