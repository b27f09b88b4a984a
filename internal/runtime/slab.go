package runtime

// Slab and block boxing: the one file of the module that imports unsafe.
//
// Decoding a composite boxes each of its leaves into a Value, and a
// plain interface conversion heap-allocates one object per leaf. A
// fixed-shape value (a struct or an array) instead lands in one block:
// an object whose Go type reflect.StructOf builds once per shape and
// tail class. The block holds every []Value header the value boxes, its
// field and element Values, the string and []byte headers of its
// fields, a slab of uint64 words for its scalar leaves and, last, a
// tail for the bytes of its strings and owned byte buffers; the slab
// and the tail hold no pointers. A top-level string or owned buffer is
// a block of one header and its tail. Each boxed leaf or header is a
// Value built by hand, its data word pointing at its slot in the block,
// and each string or owned buffer points at its bytes in the tail. A
// sequence's scalar elements share one pointer-free []uint64 slab of
// their own the same way. These rules keep those pointers sound:
//
//   - the GC scans a block by its reflect-built type, which marks
//     exactly its pointer words as pointers; a slab or tail holds none,
//     and an interior pointer keeps the whole block or slab alive;
//   - a slot or tail byte is written once, before any Value or header
//     points at it, and never again: Go treats an interface's data and
//     a string's bytes as immutable;
//   - a buffer in the tail has its capacity cut at its length, so an
//     append copies instead of writing over the bytes after it, and an
//     empty string or buffer points at nothing in the block, never at
//     the end of the tail;
//   - a block or slab is never pooled or reused, because callers keep
//     decoded values for as long as they like;
//   - a Value that points at mutable Call storage — a value slot a
//     work function set (server.go), inside a heap-allocated Frame — is
//     a transient view: it lives only inside one reply encode
//     (encodeReplyCall), is never handed to user code (Result, Out and
//     a [special] hook get a heap box), and is dead before the slot is
//     set or cleared again, so for as long as it lives its data is
//     written once as above.

import (
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
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

// leafTypes holds the type word of each non-bool leaf kind's Value.
var leafTypes = [...]unsafe.Pointer{
	leafInt32:   newBoxKind[int32]().typ,
	leafUint32:  newBoxKind[uint32]().typ,
	leafFloat32: newBoxKind[float32]().typ,
	leafPort:    newBoxKind[PortName]().typ,
	leafInt64:   newBoxKind[int64]().typ,
	leafUint64:  newBoxKind[uint64]().typ,
	leafFloat64: newBoxKind[float64]().typ,
}

// boxLeaf stores the wire bits w of a non-bool scalar leaf of kind k in
// s at byte offset off and returns the Value of k's Go type whose data
// word points at that slot. A 4-byte kind's Go value has the bits of its
// wire form (an int32 its two's complement, a float32 its IEEE bits), so
// the store depends only on the width. off must be a multiple of that
// width; the index below keeps a wrong offset from writing past s.
func boxLeaf(s []uint64, off uintptr, k leafKind, w uint64) Value {
	_ = s[off>>3]
	p := unsafe.Add(unsafe.Pointer(unsafe.SliceData(s)), off)
	if k >= leafInt64 {
		*(*uint64)(p) = w
	} else {
		*(*uint32)(p) = uint32(w)
	}
	var out Value
	*(*eface)(unsafe.Pointer(&out)) = eface{leafTypes[k], p}
	return out
}

// A blockShape counts a block's slots region by region. It is also the
// key a block's Go types are cached under: every NewPlan compiles its
// own IR, so two plans of one interface share a type only through its
// shape.
type blockShape struct {
	hdrs, vals, strs, byts, words int
}

// Tail classes. A tail of n bytes lands in the smallest class that
// holds it: every multiple of 8 up to 128, then eight classes per
// doubling (144, 160, ..., 256, 288, ...), whose step is an eighth of
// the doubling's base. A class therefore holds its n bytes rounded up
// to the word, or wastes less than 12.5% of itself and so of the block.
// Class 0 is the block without a tail. A shape has at most tailClasses
// Go types, one per class, each built on first use.
const tailClasses = 1 + 16 + 8*(63-7)

// tailClass returns the class of an n-byte tail and its size in bytes.
func tailClass(n int) (int, int) {
	if n <= 128 {
		c := (n + 7) / 8
		return c, 8 * c
	}
	k := bits.Len(uint(n-1)) - 1 // 1<<k < n <= 2<<k, k >= 7
	step := 1 << (k - 3)
	m := (n-1-1<<k)/step + 1 // 1..8
	return 16 + 8*(k-7) + m, 1<<k + m*step
}

// A blockType is the Go type of every block of one shape, one per tail
// class, and the byte offset of each of its regions: a tail follows
// the slab, so the offsets are the same in every class.
type blockType struct {
	shape                          blockShape
	hdr, val, str, byt, word, tail uintptr
	classes                        [tailClasses]atomic.Pointer[rtype]
}

// rtype stands for the runtime's type descriptor, the data word of a
// reflect.Type.
type rtype struct{}

// rtypeOf returns typ's runtime type descriptor.
func rtypeOf(typ reflect.Type) *rtype {
	return (*rtype)((*[2]unsafe.Pointer)(unsafe.Pointer(&typ))[1])
}

// newObject allocates one zeroed object of type t: what reflect.New
// does, without the lookup of the pointer type in a global map that
// reflect.New makes on every call and a block never needs. The runtime
// keeps reflect.unsafe_New linkable from outside the standard library.
//
//go:linkname newObject reflect.unsafe_New
//go:noescape
func newObject(t *rtype) unsafe.Pointer

var blockTypes struct {
	sync.Mutex
	m map[blockShape]*blockType
}

// blockTypeOf returns the block type of shape s, building it and its
// tailless class on first use. It runs at bind time only.
func blockTypeOf(s blockShape) *blockType {
	blockTypes.Lock()
	defer blockTypes.Unlock()
	if bt := blockTypes.m[s]; bt != nil {
		return bt
	}
	typ := s.structOf(0)
	bt := &blockType{shape: s, hdr: typ.Field(0).Offset, val: typ.Field(1).Offset,
		str: typ.Field(2).Offset, byt: typ.Field(3).Offset, word: typ.Field(4).Offset}
	bt.tail = bt.word + uintptr(s.words)*8
	bt.classes[0].Store(rtypeOf(typ))
	if blockTypes.m == nil {
		blockTypes.m = make(map[blockShape]*blockType)
	}
	blockTypes.m[s] = bt
	return bt
}

// structOf builds the Go type of a block of shape s with a tail of n
// bytes.
func (s blockShape) structOf(n int) reflect.Type {
	fields := []reflect.StructField{
		{Name: "H", Type: reflect.ArrayOf(s.hdrs, reflect.TypeFor[[]Value]())},
		{Name: "V", Type: reflect.ArrayOf(s.vals, reflect.TypeFor[Value]())},
		{Name: "S", Type: reflect.ArrayOf(s.strs, reflect.TypeFor[string]())},
		{Name: "B", Type: reflect.ArrayOf(s.byts, reflect.TypeFor[[]byte]())},
		{Name: "W", Type: reflect.ArrayOf(s.words, reflect.TypeFor[uint64]())},
	}
	if n > 0 {
		fields = append(fields, reflect.StructField{Name: "T", Type: reflect.ArrayOf(n, reflect.TypeFor[byte]())})
	}
	return reflect.StructOf(fields)
}

// class returns the Go type of tail class c, n bytes of tail, building
// it on first use; a built class is found without the lock.
func (bt *blockType) class(c, n int) *rtype {
	if t := bt.classes[c].Load(); t != nil {
		return t
	}
	blockTypes.Lock()
	defer blockTypes.Unlock()
	if t := bt.classes[c].Load(); t != nil {
		return t
	}
	t := rtypeOf(bt.shape.structOf(n))
	bt.classes[c].Store(t)
	return t
}

// A block is one decoded value's allocation, seen as its regions. An
// empty region is nil. used counts the tail bytes handed out so far.
type block struct {
	hdrs [][]Value
	vals []Value
	strs []string
	byts [][]byte
	slab []uint64
	tail []byte
	used int
}

// alloc allocates one zeroed block of type bt with room for an n-byte
// tail into b.
func (bt *blockType) alloc(b *block, n int) {
	c, size := tailClass(n)
	p := newObject(bt.class(c, size))
	b.hdrs = region[[]Value](p, bt.hdr, bt.shape.hdrs)
	b.vals = region[Value](p, bt.val, bt.shape.vals)
	b.strs = region[string](p, bt.str, bt.shape.strs)
	b.byts = region[[]byte](p, bt.byt, bt.shape.byts)
	b.slab = region[uint64](p, bt.word, bt.shape.words)
	b.tail, b.used = region[byte](p, bt.tail, size), 0
}

// string copies v into the next bytes of the tail and returns them as a
// string. An empty v is "", which points at nothing.
func (b *block) string(v []byte) string {
	t := b.take(v)
	if len(t) == 0 {
		return ""
	}
	return unsafe.String(&t[0], len(t))
}

// bytes copies v into the next bytes of the tail and returns them,
// capped so that an append cannot reach the bytes after them. An empty
// v is an empty slice that points at nothing in the block.
func (b *block) bytes(v []byte) []byte {
	if t := b.take(v); len(t) > 0 {
		return t
	}
	return noBytes
}

// take copies v into the next len(v) tail bytes, each written once.
func (b *block) take(v []byte) []byte {
	t := b.tail[b.used : b.used+len(v) : b.used+len(v)]
	copy(t, v)
	b.used += len(v)
	return t
}

// region is the n slots of type T at byte offset off in the block at p.
func region[T any](p unsafe.Pointer, off uintptr, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Add(p, off)), n)
}
