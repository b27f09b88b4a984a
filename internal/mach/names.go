package mach

import "sync"

// Name is a task-local port name, structured as Mach structures it:
// an index into the task's entry table in the high bits and a
// generation number in the low bits, so stale names are detected
// rather than aliased.
type Name uint32

const (
	genBits = 6
	genMask = (1 << genBits) - 1
)

func makeName(index int32, gen uint8) Name {
	return Name(uint32(index)<<genBits | uint32(gen)&genMask)
}

func (n Name) index() int32 { return int32(n >> genBits) }
func (n Name) gen() uint8   { return uint8(n) & genMask }

// nameTable is one task's port name space, modeled on the real Mach
// ipc_space: a slab of entries addressed by index+generation, plus a
// splay-tree reverse index (Mach's ipc_splay_tree) that implements
// the unique-name invariant — every port has at most one name per
// task.
//
// The invariant is what the paper's §4.5 experiment relaxes: on
// every right transfer the standard path must search the reverse
// tree (splaying the result to the root), maintain reference counts,
// and on final deallocation remove the node with more rotations.
// The [nonunique] path skips the reverse index entirely and just
// claims a fresh slab slot. The two insert paths below preserve
// exactly that cost difference.
type nameTable struct {
	mu      sync.Mutex
	entries []nameEntry
	free    []int32 // free-slot stack
	reverse splayTree
	live    int
}

type nameEntry struct {
	port   *Port
	refs   int
	gen    uint8
	unique bool // participates in the reverse index
	inUse  bool
}

func (nt *nameTable) init() {}

// allocSlot claims an entry slot from the free list or grows the
// slab, returning its index.
func (nt *nameTable) allocSlot() int32 {
	if n := len(nt.free); n > 0 {
		idx := nt.free[n-1]
		nt.free = nt.free[:n-1]
		return idx
	}
	nt.entries = append(nt.entries, nameEntry{})
	return int32(len(nt.entries) - 1)
}

// insertUnique implements the standard Mach transfer path: search
// the reverse tree for an existing name, bump its refcount if found,
// otherwise claim a slot and insert it into the tree.
func (nt *nameTable) insertUnique(p *Port) Name {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if idx, ok := nt.reverse.lookup(p.id); ok {
		e := &nt.entries[idx]
		if e.inUse && e.unique && e.port == p {
			e.refs++
			return makeName(idx, e.gen)
		}
	}
	idx := nt.allocSlot()
	e := &nt.entries[idx]
	gen := (e.gen + 1) & genMask
	*e = nameEntry{port: p, refs: 1, gen: gen, unique: true, inUse: true}
	nt.reverse.insert(p.id, idx)
	nt.live++
	return makeName(idx, gen)
}

// insertFast implements the [nonunique] path: claim a slot, skip the
// reverse index and reference counting entirely. The same port may
// end up with many names in one task — exactly what the relaxed
// presentation permits.
func (nt *nameTable) insertFast(p *Port) Name {
	nt.mu.Lock()
	idx := nt.allocSlot()
	e := &nt.entries[idx]
	gen := (e.gen + 1) & genMask
	*e = nameEntry{port: p, refs: 1, gen: gen, inUse: true}
	nt.live++
	nt.mu.Unlock()
	return makeName(idx, gen)
}

// get validates a name against the slab (bounds, liveness,
// generation) and returns its entry index, or -1.
func (nt *nameTable) get(n Name) int32 {
	idx := n.index()
	if idx < 0 || int(idx) >= len(nt.entries) {
		return -1
	}
	e := &nt.entries[idx]
	if !e.inUse || e.gen != n.gen() {
		return -1
	}
	return idx
}

func (nt *nameTable) lookup(n Name) (*Port, error) {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	idx := nt.get(n)
	if idx < 0 {
		return nil, ErrInvalidName
	}
	return nt.entries[idx].port, nil
}

func (nt *nameTable) deallocate(n Name) error {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	idx := nt.get(n)
	if idx < 0 {
		return ErrInvalidName
	}
	e := &nt.entries[idx]
	e.refs--
	if e.refs > 0 {
		return nil
	}
	if e.unique {
		// Remove from the reverse tree — the other half of the
		// invariant's cost, with its own splaying rotations.
		nt.reverse.remove(e.port.id)
	}
	e.inUse = false
	e.port = nil
	nt.free = append(nt.free, idx)
	nt.live--
	return nil
}
