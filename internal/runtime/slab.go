package runtime

// Slab and block boxing: the one file of the module that imports unsafe.
//
// Decoding a composite boxes each of its leaves into a Value, and a
// plain interface conversion heap-allocates one object per leaf. A
// fixed-shape value (a struct or an array) instead lands in one block:
// an object whose Go type reflect.StructOf builds once per shape. The
// block holds every []Value header the value boxes, its field and
// element Values, the string and []byte headers of its fields, and, last
// so that the GC scans only the pointer prefix before it, a slab of
// uint64 words for its scalar leaves. Each boxed leaf or header is a
// Value built by hand, its data word pointing at its slot in the block.
// A sequence's scalar elements share one pointer-free []uint64 slab of
// their own the same way. Three rules keep those interfaces sound:
//
//   - the GC scans a block by its reflect-built type, which marks
//     exactly its pointer words as pointers; a slab holds none, and an
//     interior data word keeps the whole block or slab alive;
//   - a slot is written once, before its Value is returned, and never
//     again: Go treats an interface's data as immutable;
//   - a block or slab is never pooled or reused, because callers keep
//     decoded values for as long as they like.

import (
	"reflect"
	"sync"
	"unsafe"
)

// eface is the runtime's layout of an empty interface.
type eface struct {
	typ, data unsafe.Pointer
}

// A boxKind builds Values of type T whose data word points at a slot
// the caller owns. T must not be pointer-shaped (a pointer, map, chan or
// func), whose interface data word is the value itself. Its type word is
// taken once, from the zero value, when the kind is declared.
type boxKind[T any] struct{ typ unsafe.Pointer }

func newBoxKind[T any]() boxKind[T] {
	var v Value = *new(T)
	return boxKind[T]{(*eface)(unsafe.Pointer(&v)).typ}
}

// at returns the Value holding *p, with its data word pointing at p.
// *p must already hold its final value.
func (k boxKind[T]) at(p *T) Value {
	var out Value
	*(*eface)(unsafe.Pointer(&out)) = eface{k.typ, unsafe.Pointer(p)}
	return out
}

// setAt stores v in s[i] and returns it as a Value pointing at that
// slot.
func (k boxKind[T]) setAt(s []T, i int, v T) Value {
	s[i] = v
	return k.at(&s[i])
}

var (
	valuesBox = newBoxKind[[]Value]()
	stringBox = newBoxKind[string]()
	bytesBox  = newBoxKind[[]byte]()
)

// slabScalar is every Go type a slab slot holds: the Value form of a
// non-bool scalar wire kind (see Value).
type slabScalar interface {
	int32 | uint32 | int64 | uint64 | float32 | float64 | PortName
}

// A slabKind boxes one scalar type into slab slots.
type slabKind[T slabScalar] struct{ boxKind[T] }

func newSlabKind[T slabScalar]() slabKind[T] { return slabKind[T]{newBoxKind[T]()} }

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
	return k.at(p)
}

// A blockShape counts a block's slots region by region. It is also the
// key a block's Go type is cached under: every NewPlan compiles its own
// IR, so two plans of one interface share a type only through its shape.
type blockShape struct {
	hdrs, vals, strs, byts, words int
}

// A blockType is the Go type of every block of one shape, and the byte
// offset of each of its regions.
type blockType struct {
	typ                      reflect.Type
	shape                    blockShape
	hdr, val, str, byt, word uintptr
}

var blockTypes struct {
	sync.Mutex
	m map[blockShape]*blockType
}

// blockTypeOf returns the block type of shape s, building it on first
// use. It runs at bind time only.
func blockTypeOf(s blockShape) *blockType {
	blockTypes.Lock()
	defer blockTypes.Unlock()
	if bt := blockTypes.m[s]; bt != nil {
		return bt
	}
	typ := reflect.StructOf([]reflect.StructField{
		{Name: "H", Type: reflect.ArrayOf(s.hdrs, reflect.TypeFor[[]Value]())},
		{Name: "V", Type: reflect.ArrayOf(s.vals, reflect.TypeFor[Value]())},
		{Name: "S", Type: reflect.ArrayOf(s.strs, reflect.TypeFor[string]())},
		{Name: "B", Type: reflect.ArrayOf(s.byts, reflect.TypeFor[[]byte]())},
		{Name: "W", Type: reflect.ArrayOf(s.words, reflect.TypeFor[uint64]())},
	})
	bt := &blockType{typ: typ, shape: s, hdr: typ.Field(0).Offset, val: typ.Field(1).Offset,
		str: typ.Field(2).Offset, byt: typ.Field(3).Offset, word: typ.Field(4).Offset}
	if blockTypes.m == nil {
		blockTypes.m = make(map[blockShape]*blockType)
	}
	blockTypes.m[s] = bt
	return bt
}

// A block is one fixed-shape value's allocation, seen as its regions.
// An empty region is nil.
type block struct {
	hdrs [][]Value
	vals []Value
	strs []string
	byts [][]byte
	slab []uint64
}

// alloc allocates one zeroed block of type bt into b.
func (bt *blockType) alloc(b *block) {
	p := reflect.New(bt.typ).UnsafePointer()
	b.hdrs = region[[]Value](p, bt.hdr, bt.shape.hdrs)
	b.vals = region[Value](p, bt.val, bt.shape.vals)
	b.strs = region[string](p, bt.str, bt.shape.strs)
	b.byts = region[[]byte](p, bt.byt, bt.shape.byts)
	b.slab = region[uint64](p, bt.word, bt.shape.words)
}

// region is the n slots of type T at byte offset off in the block at p.
func region[T any](p unsafe.Pointer, off uintptr, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Add(p, off)), n)
}
