package runtime

// Slab boxing: the one file of the module that imports unsafe.
//
// Decoding a composite boxes each of its scalar leaves into a Value,
// and a plain interface conversion heap-allocates one word per leaf.
// A composite's decode instead allocates one pointer-free []uint64
// slab, stores each scalar leaf in its slot, and builds the leaf's
// Value by hand with its data word pointing at that slot. Three rules
// keep those interfaces sound:
//
//   - a slab holds no pointers, so the GC scans none of it and an
//     interior data word keeps the whole slab alive;
//   - a slot is written once, before its Value is returned, and never
//     again: Go treats an interface's data as immutable;
//   - a slab is never pooled or reused, because callers keep decoded
//     values for as long as they like.

import "unsafe"

// slabScalar is every Go type a slab slot holds: the Value form of a
// non-bool scalar wire kind (see Value).
type slabScalar interface {
	int32 | uint32 | int64 | uint64 | float32 | float64 | PortName
}

// eface is the runtime's layout of an empty interface.
type eface struct {
	typ, data unsafe.Pointer
}

// A slabKind boxes one scalar type into slab slots. Its type word is
// taken once, from the zero value, when the kind is declared.
type slabKind[T slabScalar] struct{ typ unsafe.Pointer }

func newSlabKind[T slabScalar]() slabKind[T] {
	var v Value = *new(T)
	return slabKind[T]{(*eface)(unsafe.Pointer(&v)).typ}
}

var (
	slabInt32   = newSlabKind[int32]()
	slabUint32  = newSlabKind[uint32]()
	slabInt64   = newSlabKind[int64]()
	slabUint64  = newSlabKind[uint64]()
	slabFloat32 = newSlabKind[float32]()
	slabFloat64 = newSlabKind[float64]()
	slabPort    = newSlabKind[PortName]()
)

// boxAt stores v in s at byte offset off and returns it as a Value
// whose data word points at that slot. off must be a multiple of v's
// size, which is 4 or 8, so the slot lies inside word off/8; the index
// below keeps a wrong offset from writing past the slab.
func (k slabKind[T]) boxAt(s []uint64, off uintptr, v T) Value {
	_ = s[off>>3]
	p := (*T)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(s)), off))
	*p = v
	var out Value
	*(*eface)(unsafe.Pointer(&out)) = eface{k.typ, unsafe.Pointer(p)}
	return out
}
