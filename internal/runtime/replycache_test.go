package runtime

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// The tests below pin the reply cache's at-most-once contract on its
// slab-and-arena layout. They reach into the shards (same package): the
// arena's bookkeeping is the thing under test.

// patterned is the reply every test gives key: bytes that depend on the
// key and the position, so another key's bytes — or a stale chunk's —
// cannot pass for it.
func patterned(key uint64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(key*131 + uint64(i)*7)
	}
	return b
}

// replySize gives each key one of a spread of sizes, from empty to
// larger than an arena chunk.
// isPatterned reports whether b is key's reply, without building it.
func isPatterned(key uint64, b []byte) bool {
	if len(b) != replySize(key) {
		return false
	}
	for i := range b {
		if b[i] != byte(key*131+uint64(i)*7) {
			return false
		}
	}
	return true
}

func replySize(key uint64) int {
	sizes := [...]int{8, 0, 100, 5000, 1700, 30000, replyChunkSize + 900, 12, 8200, replyChunkSize}
	return sizes[key%uint64(len(sizes))]
}

// checkShard asserts the slab and the arena agree with each other and
// with what was put in: checkArena, and every reply still held is its
// key's patterned bytes.
func checkShard(t *testing.T, s *replyShard) {
	t.Helper()
	checkArena(t, s)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.ring {
		if !e.acked && !isPatterned(e.key, e.frame) {
			t.Fatalf("arena bytes retained for key %d (%d bytes) are not its reply (%d bytes)", e.key, len(e.frame), replySize(e.key))
		}
	}
}

// checkArena asserts the slab and the arena agree with each other. An
// acknowledged entry is a tombstone: its key stays in the ring and the
// index, its bytes are gone.
func checkArena(t *testing.T, s *replyShard) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ring) > s.cap {
		t.Fatalf("ring holds %d entries, capacity %d", len(s.ring), s.cap)
	}
	done := 0
	for key, slot := range s.index {
		if slot == executing {
			continue
		}
		done++
		if s.ring[slot].key != key {
			t.Fatalf("index sends key %d to slot %d, which holds key %d", key, slot, s.ring[slot].key)
		}
	}
	if done != len(s.ring) {
		t.Fatalf("index finds %d completed entries, ring holds %d", done, len(s.ring))
	}
	held := 0
	for _, e := range s.ring {
		if e.acked {
			if e.frame != nil {
				t.Fatalf("acknowledged key %d still holds %d bytes", e.key, len(e.frame))
			}
			continue
		}
		held++
		// Each retained reply lives inside the chunk its entry names.
		i := int(e.chunk - s.base)
		if i < 0 || i >= len(s.chunks) {
			t.Fatalf("key %d names chunk %d, the arena lists %d from %d", e.key, e.chunk, len(s.chunks), s.base)
		}
		if len(e.frame) > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(s.chunks[i].buf)))
			at := uintptr(unsafe.Pointer(unsafe.SliceData(e.frame)))
			if at < lo || at+uintptr(len(e.frame)) > lo+uintptr(len(s.chunks[i].buf)) {
				t.Fatalf("key %d's bytes lie outside the chunk it names", e.key)
			}
		}
	}
	// Acknowledged tenants leave chunks out of order, and a chunk is
	// recycled once every older one is empty too: the oldest listed
	// chunk has a tenant, a younger one may have none.
	if len(s.chunks) > 0 && s.chunks[0].live == 0 {
		t.Fatalf("the oldest of %d chunks has no tenant and was not recycled", len(s.chunks))
	}
	live := 0
	for _, k := range s.chunks {
		live += k.live
	}
	if live != held {
		t.Fatalf("chunks count %d tenants, ring holds %d entries with bytes", live, held)
	}
	// The free list holds whole, empty, standard-size chunks, none of
	// them also in use.
	inUse := map[*byte]bool{}
	for _, k := range s.chunks {
		inUse[unsafe.SliceData(k.buf)] = true
	}
	for i, b := range s.free {
		if len(b) != 0 || cap(b) != replyChunkSize {
			t.Fatalf("free chunk %d has len %d cap %d, want 0 and %d", i, len(b), cap(b), replyChunkSize)
		}
		if inUse[unsafe.SliceData(b)] {
			t.Fatalf("free chunk %d is also being filled or listed twice", i)
		}
		inUse[unsafe.SliceData(b)] = true
	}
	// FIFO on both sides: the oldest entry with bytes lives in the oldest
	// chunk.
	for i := range s.ring {
		if e := s.ring[(s.head+i)%len(s.ring)]; !e.acked {
			if e.chunk != s.base {
				t.Fatal("the oldest entry does not live in the oldest chunk")
			}
			break
		}
	}
}

func arenaChunks(c *ReplyCache) (n int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.chunks) + len(s.free)
		s.mu.Unlock()
	}
	return n
}

// TestReplyCacheReplayIsOwnBytesOrReexecution: with the arena cycling
// through replies of mixed sizes — one larger than a chunk among them —
// a replay of any earlier key, however many neighbours have come and
// gone since, returns that key's bytes or runs the call again; it never
// returns another key's bytes. Every replay is checked, and the slab and
// arena are audited as they churn.
func TestReplyCacheReplayIsOwnBytesOrReexecution(t *testing.T) {
	const capacity, keys = 12, 400
	c := NewReplyCacheSharded(capacity, 1)
	s := &c.shards[0]
	rng := rand.New(rand.NewSource(17))
	reexecuted := 0
	call := func(key uint64) (replayed bool) {
		prefix := []byte("hdr")
		out, got := c.do(key, prefix, func(dst []byte) []byte {
			return append(dst, patterned(key, replySize(key))...)
		})
		if !bytes.HasPrefix(out, prefix) || !bytes.Equal(out[len(prefix):], patterned(key, replySize(key))) {
			t.Fatalf("key %d (outcome %d) came back with %d bytes that are not its reply", key, got, len(out)-len(prefix))
		}
		return got == cacheReplayed
	}
	for key := uint64(0); key < keys; key++ {
		if call(key) {
			t.Fatalf("first call of key %d was served as a replay", key)
		}
		// Retransmit a few earlier keys: recent ones replay, old ones
		// were evicted and execute again.
		for i := 0; i < 3 && key > 0; i++ {
			old := key - uint64(rng.Intn(int(min(key, 3*capacity))+1))
			wasCached := false
			s.mu.Lock()
			_, wasCached = s.index[old]
			s.mu.Unlock()
			if replayed := call(old); replayed != wasCached {
				t.Fatalf("key %d: cached=%v but replayed=%v", old, wasCached, replayed)
			} else if !replayed {
				reexecuted++
			}
		}
		checkShard(t, s)
	}
	if reexecuted == 0 {
		t.Fatal("no retransmit outlived its entry: the test never exercised eviction")
	}
	if c.Len() != capacity {
		t.Fatalf("Len = %d after %d keys, want the capacity %d", c.Len(), keys, capacity)
	}
	// The arena holds no more chunks than were ever in use at once (at
	// most one per retained reply, and the one the next reply opened
	// before its eviction retired another) — not every reply it ever saw.
	if n := arenaChunks(c); n > capacity+1 {
		t.Fatalf("arena holds %d chunks for %d retained replies", n, capacity)
	}
}

// TestReplyCacheEvictsLastTenantOfFillingChunk: at small capacities an
// eviction empties the very chunk being filled, and the reply that takes
// the slot may not fit what that chunk holds — an oversize reply after a
// small one, a small one after an oversize. The tenant counts must still
// match the ring.
func TestReplyCacheEvictsLastTenantOfFillingChunk(t *testing.T) {
	for _, capacity := range []int{1, 2, 3} {
		c := NewReplyCacheSharded(capacity, 1)
		for _, key := range []uint64{2, 6, 12, 22, 16, 32, 42, 26, 36, 52, 62, 72, 6, 2, 46, 56} {
			out, _ := c.do(key, nil, func(dst []byte) []byte { return append(dst, patterned(key, replySize(key))...) })
			if !bytes.Equal(out, patterned(key, replySize(key))) {
				t.Fatalf("capacity %d: key %d came back with bytes that are not its reply", capacity, key)
			}
			checkShard(t, &c.shards[0])
		}
	}
}

// TestReplyCacheDuplicateWaitsForOriginal: a duplicate that arrives
// while the original executes waits on the shard, starts no second
// execution, and gets a byte-identical copy — in its own buffer.
func TestReplyCacheDuplicateWaitsForOriginal(t *testing.T) {
	c := NewReplyCacheSharded(64, 1)
	s := &c.shards[0]
	const key = 42
	var execs atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	exec := func(dst []byte) []byte {
		execs.Add(1)
		close(entered)
		<-release
		return append(dst, patterned(key, 300)...)
	}
	type result struct {
		out      []byte
		replayed bool
	}
	first, dup := make(chan result, 1), make(chan result, 1)
	go func() {
		out, got := c.do(key, nil, exec)
		first <- result{out, got == cacheReplayed}
	}()
	<-entered
	go func() {
		out, got := c.do(key, make([]byte, 0, 512), exec)
		dup <- result{out, got == cacheReplayed}
	}()
	// The duplicate is parked on the shard's cond, not spinning or
	// executing: wait until it is counted there.
	for waiting := 0; waiting == 0; goruntime.Gosched() {
		s.mu.Lock()
		waiting = s.waiters
		s.mu.Unlock()
	}
	close(release)
	a, b := <-first, <-dup
	if a.replayed || !b.replayed {
		t.Fatalf("replayed: original %v, duplicate %v; want false, true", a.replayed, b.replayed)
	}
	if !bytes.Equal(a.out, patterned(key, 300)) || !bytes.Equal(a.out, b.out) {
		t.Fatal("the duplicate's bytes differ from the original's")
	}
	if unsafe.SliceData(a.out) == unsafe.SliceData(b.out) {
		t.Fatal("original and duplicate share a buffer")
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executed %d times", n)
	}
}

// TestReplyCacheInFlightNeverEvicted states the rule for the ring
// wrapping onto an in-flight call: it cannot. A call holds no ring slot
// while it executes — its key maps to the executing marker — and claims
// one only at completion, so however many times the ring wraps under a
// blocked handler, eviction finds completed entries only, and a
// duplicate of the blocked call still waits for it.
func TestReplyCacheInFlightNeverEvicted(t *testing.T) {
	const capacity, slow = 2, 7
	c := NewReplyCacheSharded(capacity, 1)
	s := &c.shards[0]
	var slowExecs atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	slowExec := func(dst []byte) []byte {
		slowExecs.Add(1)
		close(entered)
		<-release
		return append(dst, patterned(slow, replySize(slow))...)
	}
	done := make(chan []byte, 2)
	go func() { out, _ := c.do(slow, nil, slowExec); done <- out }()
	<-entered

	// Wrap the ring five times over while the handler blocks.
	for key := uint64(100); key < 100+5*capacity; key++ {
		c.do(key, nil, func(dst []byte) []byte { return append(dst, patterned(key, replySize(key))...) })
		checkShard(t, s)
	}
	s.mu.Lock()
	slot, ok := s.index[slow]
	s.mu.Unlock()
	if !ok || slot != executing {
		t.Fatalf("the in-flight key maps to (%d, %v) after the ring wrapped; want the executing marker", slot, ok)
	}
	go func() { out, _ := c.do(slow, nil, slowExec); done <- out }()
	for waiting := 0; waiting == 0; goruntime.Gosched() {
		s.mu.Lock()
		waiting = s.waiters
		s.mu.Unlock()
	}
	close(release)
	for i := 0; i < 2; i++ {
		if out := <-done; !bytes.Equal(out, patterned(slow, replySize(slow))) {
			t.Fatal("a caller of the slow key got bytes that are not its reply")
		}
	}
	if n := slowExecs.Load(); n != 1 {
		t.Fatalf("the slow call executed %d times", n)
	}
	checkShard(t, s)
}

// TestReplyCacheCapacityOneConcurrent: one shard retaining one reply, so
// every completion evicts and recycles arena space, while other
// goroutines are copying replays out and duplicates wait. Whatever a
// caller gets is its own key's reply. Run under -race.
func TestReplyCacheCapacityOneConcurrent(t *testing.T) {
	c := NewReplyCacheSharded(1, 1)
	const goroutines, rounds, keys = 8, 400, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, 0, 1024)
			for i := 0; i < rounds; i++ {
				key := uint64(rng.Intn(keys)) // few keys: duplicates collide mid-execution
				out, _ := c.do(key, buf[:0], func(dst []byte) []byte {
					goruntime.Gosched() // widen the window duplicates wait in
					return append(dst, patterned(key, replySize(key))...)
				})
				if !bytes.Equal(out, patterned(key, replySize(key))) {
					t.Errorf("goroutine %d: key %d came back with %d bytes that are not its reply", g, key, len(out))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	checkShard(t, &c.shards[0])
}

// TestSessionServerCapacityOneConcurrentHandleAppend is the same squeeze
// one layer up: concurrent HandleAppend calls on a one-entry cache, with
// retransmits of a few (cid, seq) keys interleaved, each into the
// caller's own buffer. Every reply frame must verify and carry the
// result of its own request. Run under -race.
func TestSessionServerCapacityOneConcurrentHandleAppend(t *testing.T) {
	p := batchPres(t)
	disp := NewDispatcher(p)
	disp.Handle("lone", func(c *Call) error {
		goruntime.Gosched()
		c.SetResult(c.Arg(0).(int32) * 2)
		return nil
	})
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSessionServer(disp, plan, NewReplyCacheSharded(1, 1))
	idx := plan.OpIndex("lone")
	const goroutines, rounds, keys = 8, 300, 4
	frames := make([][]byte, keys)
	for k := range frames {
		enc := XDRCodec.NewEncoder()
		if err := plan.Ops[idx].EncodeRequest(enc, []Value{int32(k + 1)}); err != nil {
			t.Fatal(err)
		}
		frames[k] = sessionRequestFrame(5, uint32(k), 0, enc.Bytes())
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, 0, 256)
			for i := 0; i < rounds; i++ {
				k := rng.Intn(keys)
				rep := sess.HandleAppend(t.Context(), idx, frames[k], buf[:0])
				if len(rep) < robustRepHeader || binary.BigEndian.Uint32(rep) != sessOK ||
					crc32.ChecksumIEEE(rep[robustRepHeader:]) != binary.BigEndian.Uint32(rep[4:]) {
					t.Errorf("goroutine %d: reply frame for key %d does not verify", g, k)
					return
				}
				if got, err := decodeDoubled(plan, idx, rep[robustRepHeader:]); err != nil || got != int32(2*(k+1)) {
					t.Errorf("goroutine %d: key %d answered %d (err %v), want %d", g, k, got, err, 2*(k+1))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReplyCacheFlushReleasesArena: Flush drops every completed reply
// and hands slab and arena back — also while a call is in flight, which
// is left to finish and is retained afterwards like any other.
func TestReplyCacheFlushReleasesArena(t *testing.T) {
	c := NewReplyCacheSharded(64, 4)
	fill := func(from, n uint64) {
		for key := from; key < from+n; key++ {
			c.do(key, nil, func(dst []byte) []byte { return append(dst, patterned(key, replySize(key))...) })
		}
	}
	empty := func(when string, inflight int) {
		t.Helper()
		if c.Len() != 0 || arenaChunks(c) != 0 {
			t.Fatalf("%s: Len = %d, %d arena chunks; want 0, 0", when, c.Len(), arenaChunks(c))
		}
		indexed := 0
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			indexed += len(s.index)
			if s.ring != nil {
				t.Fatalf("%s: shard %d kept its slab", when, i)
			}
			s.mu.Unlock()
		}
		if indexed != inflight {
			t.Fatalf("%s: %d keys still indexed, want the %d in flight", when, indexed, inflight)
		}
	}

	fill(0, 40)
	const slow = 1000
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		c.do(slow, nil, func(dst []byte) []byte {
			close(entered)
			<-release
			return append(dst, patterned(slow, replySize(slow))...)
		})
	}()
	<-entered
	if n := c.Flush(); n != 40 {
		t.Fatalf("Flush dropped %d replies, want 40", n)
	}
	empty("flushed during a call", 1)

	close(release)
	<-done
	if c.Len() != 1 {
		t.Fatalf("Len = %d after the in-flight call completed, want 1", c.Len())
	}
	if _, got := c.do(slow, nil, func(dst []byte) []byte { t.Error("re-executed"); return dst }); got != cacheReplayed {
		t.Fatal("the call that completed after Flush was not retained")
	}
	fill(2000, 30)
	for i := range c.shards {
		checkShard(t, &c.shards[i])
	}
	c.Flush()
	empty("flushed when idle", 0)
}

// TestReplyCacheDoSteadyStateNoAllocs: once the ring has wrapped — slab
// at capacity, a retired chunk on hand — a call through the cache
// allocates nothing: no entry, no channel, no retained copy.
func TestReplyCacheDoSteadyStateNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	const capacity = 64
	c := NewReplyCacheSharded(capacity, 2)
	reply := patterned(1, 1700)
	buf := make([]byte, 0, 2048)
	exec := func(dst []byte) []byte { return append(dst, reply...) }
	key := uint64(0)
	call := func() {
		key++
		if out, _ := c.do(key, buf, exec); len(out) != len(reply) {
			t.Fatalf("%d-byte reply", len(out))
		}
	}
	// Past capacity, and far enough for every shard's arena to have
	// retired a chunk.
	for i := 0; i < 40*capacity; i++ {
		call()
	}
	if allocs := testing.AllocsPerRun(2000, call); allocs != 0 {
		t.Fatalf("ReplyCache.do allocates %.2f times per call in steady state, want 0", allocs)
	}
	// A replay is as free.
	if allocs := testing.AllocsPerRun(100, func() {
		if _, got := c.do(key, buf, exec); got != cacheReplayed {
			t.Fatal("the newest key was not replayed")
		}
	}); allocs != 0 {
		t.Fatalf("a replay allocates %.2f times, want 0", allocs)
	}
}

// TestReplyCacheMixedSizesNoChunkAllocs: the benchmark's reply mix, 16 B
// to 8 KiB, in the order that defeats a single spare chunk — a run of
// large replies, which fills a chunk every eight completions, then a run
// of small ones, whose evictions retire those chunks far faster than
// the run fills one. Once the arena has seen a whole period it makes no
// further chunk, bar the one its high-water mark may still creep by as
// the fill mark drifts against the period: every other chunk in use or
// free afterwards existed after warm-up (a single spare made six new
// ones per period here). Chunks are counted by identity: AllocsPerRun
// rounds one 64 KiB chunk per few hundred calls down to zero.
func TestReplyCacheMixedSizesNoChunkAllocs(t *testing.T) {
	const capacity = 64
	const period = 4 * capacity
	c := NewReplyCacheSharded(capacity, 2)
	sizes := [...]int{8200, 8200, 8200, 4100, 8200, 8200, 1700, 8200, 16, 16, 40, 16, 16, 300, 16, 16}
	var buf []byte
	key := uint64(0)
	run := func(calls int) {
		for i := 0; i < calls; i++ {
			key++
			// The first half of a period draws from the large half of
			// sizes, the second from the small half.
			size := sizes[int(key%period)/(period/2)*8+int(key%8)]
			buf, _ = c.do(key, buf[:0], func(dst []byte) []byte { return append(dst, patterned(key, size)...) })
		}
	}
	chunks := func() map[*byte]bool {
		set := map[*byte]bool{}
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			for _, k := range s.chunks {
				set[unsafe.SliceData(k.buf)] = true
			}
			for _, b := range s.free {
				set[unsafe.SliceData(b)] = true
			}
			s.mu.Unlock()
		}
		return set
	}
	run(4 * period)
	warm := chunks()
	run(64 * capacity)
	fresh := 0
	for p := range chunks() {
		if !warm[p] {
			fresh++
		}
	}
	if fresh > 1 {
		t.Fatalf("%d of the arena's chunks were allocated after warm-up, over %d completions; the %d that existed then should have been recycled",
			fresh, 64*capacity, len(warm))
	}
}

// FuzzReplyCache drives one shard with random sequences of first calls,
// acknowledgements and retransmits, over replies from empty to larger
// than a chunk, against a model of the at-most-once window: the keys of
// the last capacity completions, and which of them were acknowledged.
// No key inside the window executes twice, a replay returns that key's
// own bytes — or the stale frame once it was acknowledged — and
// checkShard's invariants hold after every step.
func FuzzReplyCache(f *testing.F) {
	f.Add(uint8(3), []byte{0, 7, 0, 6, 1, 0, 2, 0, 0, 9, 2, 1, 1, 1, 2, 1})
	f.Add(uint8(1), []byte{0, 6, 0, 9, 1, 1, 2, 1, 2, 0, 0, 3, 1, 0})
	f.Add(uint8(8), bytes.Repeat([]byte{0, 6, 1, 0, 2, 0, 0, 9, 2, 3}, 20))
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		// Steps and capacity are kept small: checkShard re-reads every
		// retained reply after each step.
		ops = ops[:min(len(ops), 128)]
		c := NewReplyCacheSharded(int(capacity%8)+1, 1)
		s := &c.shards[0]
		// The model.
		var done []uint64 // completions, oldest first
		acked := map[uint64]bool{}
		window := func() []uint64 { return done[max(0, len(done)-s.cap):] }
		inWindow := func(key uint64) bool { return slices.Contains(window(), key) }

		stale := appendEmptyReply(nil, sessStale)
		next := uint64(0)
		for len(ops) >= 2 {
			op, arg := ops[0]%3, ops[1]
			ops = ops[2:]
			var key uint64
			switch {
			case op == 0 || len(done) == 0: // a first call, its size class picked by arg
				next++
				key = next*10 + uint64(arg%10)
			case op == 1: // acknowledge a recent completion
				key = done[len(done)-1-int(arg)%min(len(done), 2*s.cap)]
				c.ack(key)
				if inWindow(key) {
					acked[key] = true
				}
				checkShard(t, s)
				continue
			default: // retransmit a recent completion, in the window or just past it
				key = done[len(done)-1-int(arg)%min(len(done), 2*s.cap)]
			}
			executed := false
			out, _ := c.do(key, nil, func(dst []byte) []byte {
				executed = true
				return append(dst, patterned(key, replySize(key))...)
			})
			switch want := !inWindow(key); {
			case executed != want:
				t.Fatalf("key %d: executed %v, want %v (window %v)", key, executed, want, window())
			case executed:
				done = append(done, key)
				delete(acked, key)
			case acked[key] && !bytes.Equal(out, stale):
				t.Fatalf("acknowledged key %d replayed %d bytes, want the stale frame", key, len(out))
			}
			if (executed || !acked[key]) && !isPatterned(key, out) {
				t.Fatalf("key %d came back with %d bytes that are not its reply", key, len(out))
			}
			checkShard(t, s)
		}
	})
}
