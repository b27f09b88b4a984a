// Package mach simulates the slice of the Mach 3.0 kernel the paper's
// experiments run on: tasks with per-task port name spaces, ports
// carrying send/receive rights, a streamlined synchronous IPC path
// (inline "register" words plus a kernel-copied message buffer), and
// the bind-time specialization machinery of §4.5 — endpoint type
// signatures combined into a threaded-code call path that exploits
// relaxed trust and naming semantics.
//
// The simulation preserves what the paper measures: the number of
// data copies, the hash-table/refcount work of the unique-name
// invariant, and the register save/clear/restore work implied by each
// trust level. Absolute times are 2026-Go numbers, not 66 MHz
// PA-RISC numbers; relative shapes are the point.
package mach

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Common errors.
var (
	ErrDeadPort      = errors.New("mach: port is dead")
	ErrInvalidName   = errors.New("mach: invalid port name")
	ErrNotReceiver   = errors.New("mach: task does not hold the receive right")
	ErrContract      = errors.New("mach: endpoint contracts are incompatible")
	ErrNotRegistered = errors.New("mach: no server signature registered on port")
)

// A Kernel is one simulated machine: the namespace tasks and ports
// are created in.
type Kernel struct{}

// NewKernel creates an empty simulated machine.
func NewKernel() *Kernel { return &Kernel{} }

// NewTask creates a task with an empty port name space.
func (k *Kernel) NewTask(name string) *Task {
	t := &Task{name: name}
	t.names.init()
	return t
}

// A Task is one protection domain: a port name space plus a
// (simulated) register context.
type Task struct {
	name  string
	names nameTable
}

// A Port is a kernel message queue. Exactly one task holds the
// receive right; any number of tasks may hold send rights under
// task-local names.
type Port struct {
	id       uint32 // global id, hashed by the unique-name index
	mu       sync.Mutex
	receiver *Task
	dead     bool
	queue    chan *exchange
	// serverSig is the registered server endpoint signature used
	// by Bind (§4.5); nil until RegisterServer.
	serverSig *EndpointSig
}

// AllocatePort creates a port whose receive right belongs to t and
// returns the task-local name of the send right inserted into t's
// name space, along with the port itself.
func (t *Task) AllocatePort() (Name, *Port) {
	p := &Port{
		id:       nextPortID.Add(1),
		receiver: t,
		queue:    make(chan *exchange),
	}
	n := t.names.insertUnique(p)
	return n, p
}

var nextPortID atomic.Uint32

// Receiver returns the task holding the port's receive right.
func (p *Port) Receiver() *Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.receiver
}

// Destroy marks the port dead; subsequent calls fail with
// ErrDeadPort and blocked receivers are released.
func (p *Port) Destroy() {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	p.mu.Unlock()
	close(p.queue)
}

func (p *Port) isDead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead
}

// RegisterServer records the server endpoint's type signature on the
// port, the server half of the §4.5 bind-time handshake.
func (p *Port) RegisterServer(sig EndpointSig) {
	p.mu.Lock()
	p.serverSig = &sig
	p.mu.Unlock()
}

func (p *Port) registeredServer() *EndpointSig {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.serverSig
}

// InsertRight inserts a send right for port into the task's name
// space under the standard Mach unique-name invariant: if the task
// already has a name for this port, that name's reference count is
// incremented and the same name returned. This is the expensive path
// the paper measures — a reverse hash lookup plus refcount
// bookkeeping on every transfer.
func (t *Task) InsertRight(p *Port) Name {
	return t.names.insertUnique(p)
}

// InsertRightNonUnique inserts a send right without enforcing the
// unique-name invariant ([nonunique] presentation): a fresh slot is
// handed out with no reverse lookup and no reference counting.
func (t *Task) InsertRightNonUnique(p *Port) Name {
	return t.names.insertFast(p)
}

// LookupRight resolves a task-local name to its port.
func (t *Task) LookupRight(n Name) (*Port, error) {
	return t.names.lookup(n)
}

// DeallocateRight drops one reference to the named right, removing
// the name when the count reaches zero.
func (t *Task) DeallocateRight(n Name) error {
	return t.names.deallocate(n)
}

func (t *Task) String() string { return fmt.Sprintf("task(%s)", t.name) }
