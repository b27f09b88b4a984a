package fbuf

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func threeDomainPath(bufSize, count int) (*Path, *Domain, *Domain, *Domain) {
	w := NewDomain("writer")
	s := NewDomain("server")
	r := NewDomain("reader")
	return NewPath(bufSize, count, w, s, r), w, s, r
}

func TestAllocProduceTransferFree(t *testing.T) {
	p, w, s, _ := threeDomainPath(64, 4)
	b, err := p.Alloc(w)
	if err != nil {
		t.Fatal(err)
	}
	if pooled(p) != 3 {
		t.Fatalf("free = %d", pooled(p))
	}
	if err := b.Produce(w, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := b.Transfer(w, s, false); err != nil {
		t.Fatal(err)
	}
	data, err := b.Bytes(s)
	if err != nil || !bytes.Equal(data, []byte("hello")) {
		t.Fatalf("bytes = %q, %v", data, err)
	}
	if err := b.Free(s); err != nil {
		t.Fatal(err)
	}
	if pooled(p) != 4 {
		t.Fatalf("free after Free = %d", pooled(p))
	}
}

func TestNoCopyTransfer(t *testing.T) {
	// The receiving domain must see the sender's storage, not a
	// copy.
	p, w, s, _ := threeDomainPath(64, 1)
	b, _ := p.Alloc(w)
	_ = b.Produce(w, []byte("zero-copy"))
	before, _ := b.Bytes(w)
	_ = b.Transfer(w, s, false)
	after, err := b.Bytes(s)
	if err != nil {
		t.Fatal(err)
	}
	if &before[0] != &after[0] {
		t.Fatal("transfer copied the data")
	}
}

func TestAccessRules(t *testing.T) {
	p, w, s, r := threeDomainPath(64, 2)
	b, _ := p.Alloc(w)
	_ = b.Produce(w, []byte("data"))

	// Non-owners cannot produce, read, transfer, or free.
	if err := b.Produce(s, []byte("x")); !errors.Is(err, ErrNotOwner) {
		t.Errorf("produce err = %v", err)
	}
	if _, err := b.Bytes(r); !errors.Is(err, ErrNotOwner) {
		t.Errorf("bytes err = %v", err)
	}
	if err := b.Transfer(s, r, false); !errors.Is(err, ErrNotOwner) {
		t.Errorf("transfer err = %v", err)
	}
	if err := b.Free(s); !errors.Is(err, ErrNotOwner) {
		t.Errorf("free err = %v", err)
	}
	// Domains off the path cannot allocate or receive.
	outsider := NewDomain("outsider")
	if _, err := p.Alloc(outsider); !errors.Is(err, ErrNotOnPath) {
		t.Errorf("alloc err = %v", err)
	}
	if err := b.Transfer(w, outsider, false); !errors.Is(err, ErrNotOnPath) {
		t.Errorf("transfer to outsider err = %v", err)
	}
}

func TestVolatileKeepsOriginatorReadAccess(t *testing.T) {
	p, w, s, r := threeDomainPath(64, 1)
	b, _ := p.Alloc(w)
	_ = b.Produce(w, []byte("shared"))
	if err := b.Transfer(w, s, true); err != nil {
		t.Fatal(err)
	}
	// The originator retains read access while the server works.
	if _, err := b.Bytes(w); err != nil {
		t.Errorf("originator read after volatile transfer: %v", err)
	}
	// But cannot write.
	if err := b.Produce(w, []byte("x")); !errors.Is(err, ErrNotOwner) {
		t.Errorf("originator produce err = %v", err)
	}
	// A third domain still has no access.
	if _, err := b.Bytes(r); !errors.Is(err, ErrNotOwner) {
		t.Errorf("third-domain read err = %v", err)
	}
	// A subsequent non-volatile transfer revokes the originator.
	_ = b.Transfer(s, r, false)
	if _, err := b.Bytes(w); !errors.Is(err, ErrNotOwner) {
		t.Errorf("originator read after revoke err = %v", err)
	}
}

func TestPoolExhaustionAndReuse(t *testing.T) {
	p, w, _, _ := threeDomainPath(16, 2)
	b1, err1 := p.Alloc(w)
	_, err2 := p.Alloc(w)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if _, err := p.Alloc(w); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err = %v, want pool exhausted", err)
	}
	_ = b1.Produce(w, []byte("junk"))
	if err := b1.Free(w); err != nil {
		t.Fatal(err)
	}
	b3, err := p.Alloc(w)
	if err != nil {
		t.Fatal(err)
	}
	if b3.Len() != 0 {
		t.Fatal("reused buffer should start empty")
	}
}

func TestUseAfterFree(t *testing.T) {
	p, w, _, _ := threeDomainPath(16, 1)
	b, _ := p.Alloc(w)
	_ = b.Free(w)
	if err := b.Produce(w, []byte("x")); !errors.Is(err, ErrFreed) {
		t.Errorf("produce err = %v", err)
	}
	if _, err := b.Bytes(w); !errors.Is(err, ErrFreed) {
		t.Errorf("bytes err = %v", err)
	}
	if err := b.Free(w); !errors.Is(err, ErrFreed) {
		t.Errorf("double free err = %v", err)
	}
}

func TestProduceOverflow(t *testing.T) {
	p, w, _, _ := threeDomainPath(8, 1)
	b, _ := p.Alloc(w)
	if err := b.Produce(w, make([]byte, 9)); err == nil {
		t.Fatal("overflow should fail")
	}
	if err := b.Produce(w, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := b.Produce(w, []byte{1}); err == nil {
		t.Fatal("second overflow should fail")
	}
}

func TestByID(t *testing.T) {
	p, w, s, _ := threeDomainPath(16, 1)
	b, _ := p.Alloc(w)
	got, err := p.ByID(s, b.ID())
	if err != nil || got != b {
		t.Fatalf("ByID = %v, %v", got, err)
	}
	if _, err := p.ByID(s, 9999); !errors.Is(err, ErrBadID) {
		t.Errorf("bad id err = %v", err)
	}
	if _, err := p.ByID(NewDomain("x"), b.ID()); !errors.Is(err, ErrNotOnPath) {
		t.Errorf("off-path err = %v", err)
	}
}

func TestAggregateSpliceAndGather(t *testing.T) {
	p, w, s, _ := threeDomainPath(8, 4)
	var agg Aggregate
	want := []byte("abcdefghijkl")
	for i := 0; i < 3; i++ {
		b, err := p.Alloc(w)
		if err != nil {
			t.Fatal(err)
		}
		_ = b.Produce(w, want[i*4:(i+1)*4])
		_ = b.Transfer(w, s, false)
		agg.Append(b)
	}
	if agg.Len() != 12 {
		t.Fatalf("len = %d", agg.Len())
	}
	dst := make([]byte, 12)
	n, err := agg.Gather(s, dst)
	if err != nil || n != 12 || !bytes.Equal(dst, want) {
		t.Fatalf("gather = %d, %q, %v", n, dst, err)
	}
}

func TestGatherRequiresAccessToEverySegment(t *testing.T) {
	p, w, s, _ := threeDomainPath(8, 2)
	b1, _ := p.Alloc(w)
	_ = b1.Produce(w, []byte("aa"))
	_ = b1.Transfer(w, s, false)
	b2, _ := p.Alloc(w) // still owned by writer
	_ = b2.Produce(w, []byte("bb"))
	agg := NewAggregate(b1, b2)
	dst := make([]byte, 4)
	if _, err := agg.Gather(s, dst); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("err = %v, want access failure on second segment", err)
	}
}

// Property: any sequence of alloc/free keeps the pool conserved —
// free count + live count == total.
func TestQuickPoolConservation(t *testing.T) {
	const total = 8
	f := func(ops []bool) bool {
		p := NewPath(16, total, NewDomain("d"))
		d := p.domains[0]
		var live []*Buffer
		for _, alloc := range ops {
			if alloc {
				b, err := p.Alloc(d)
				if err != nil {
					if len(live) != total {
						return false
					}
					continue
				}
				live = append(live, b)
			} else if len(live) > 0 {
				b := live[len(live)-1]
				live = live[:len(live)-1]
				if b.Free(d) != nil {
					return false
				}
			}
			if pooled(p)+len(live) != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// pooled reports how many buffers sit in p's pool.
func pooled(p *Path) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// A buffer holds storage only once it is leased: a path pays for the
// buffers its domains touch, and a first lease's arena is a full,
// zeroed buffer.
func TestStorageAtFirstLease(t *testing.T) {
	p, w, _, _ := threeDomainPath(64, 4)
	for id := uint32(1); id <= 4; id++ {
		b, err := p.ByID(w, id)
		if err != nil {
			t.Fatal(err)
		}
		if b.storage != nil {
			t.Fatalf("buffer %d holds %d bytes before any lease", id, len(b.storage))
		}
	}
	b, err := p.Alloc(w)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := b.Arena(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(arena) != p.BufSize() || !bytes.Equal(arena, make([]byte, p.BufSize())) {
		t.Fatalf("first lease's arena is %d bytes %v, want %d zero bytes", len(arena), arena, p.BufSize())
	}
	held := 0
	for id := uint32(1); id <= 4; id++ {
		if c, _ := p.ByID(w, id); c.storage != nil {
			held++
		}
	}
	if held != 1 {
		t.Fatalf("%d buffers hold storage after one lease, want 1", held)
	}
}
