package runtime

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexrpc/internal/stats"
)

// noReply is an exec that produces an empty reply frame.
func noReply(dst []byte) []byte { return dst }

// TestReplyCacheShardedSingleFlight: duplicates of one key execute
// once and everyone sees the first execution's bytes, across shard
// boundaries and under concurrency.
func TestReplyCacheShardedSingleFlight(t *testing.T) {
	c := NewReplyCacheSharded(256, 8)
	if c.Shards() != 8 {
		t.Fatalf("shards = %d, want 8", c.Shards())
	}
	const keys, dups = 32, 8
	var execs atomic.Int64
	var wg sync.WaitGroup
	for k := uint64(0); k < keys; k++ {
		for d := 0; d < dups; d++ {
			wg.Add(1)
			go func(k uint64) {
				defer wg.Done()
				frame, _ := c.do(k, nil, func(dst []byte) []byte {
					execs.Add(1)
					return binary.BigEndian.AppendUint64(dst, k)
				})
				if got := binary.BigEndian.Uint64(frame); got != k {
					t.Errorf("key %d replayed frame for key %d", k, got)
				}
			}(k)
		}
	}
	wg.Wait()
	if execs.Load() != keys {
		t.Fatalf("executed %d times for %d distinct keys", execs.Load(), keys)
	}
	if c.Len() != keys {
		t.Fatalf("Len = %d, want %d", c.Len(), keys)
	}
}

// TestReplyCacheShardedEviction: capacity is enforced per shard, so
// total retention stays within one shard's worth of the configured
// capacity even when one shard absorbs a burst.
func TestReplyCacheShardedEviction(t *testing.T) {
	const capacity, shards = 16, 4
	c := NewReplyCacheSharded(capacity, shards)
	for k := uint64(0); k < 10*capacity; k++ {
		c.do(k, nil, noReply)
	}
	if got := c.Len(); got > capacity {
		t.Fatalf("cache retains %d entries past its capacity %d", got, capacity)
	}
	// The newest key must still be present (FIFO evicts oldest).
	_, got := c.do(10*capacity-1, nil, noReply)
	if got != cacheReplayed {
		t.Fatal("newest key was evicted before older ones")
	}
}

// TestReplyCacheShardedRounding: shard counts round up to a power of
// two and a non-positive count derives one from GOMAXPROCS.
func TestReplyCacheShardedRounding(t *testing.T) {
	if got := NewReplyCacheSharded(64, 3).Shards(); got != 4 {
		t.Fatalf("3 shards rounded to %d, want 4", got)
	}
	if got := NewReplyCacheSharded(64, 1).Shards(); got != 1 {
		t.Fatalf("1 shard became %d", got)
	}
	auto := NewReplyCacheSharded(64, 0).Shards()
	if auto < 1 || auto > maxReplyCacheShards || auto&(auto-1) != 0 {
		t.Fatalf("derived shard count %d is not a bounded power of two", auto)
	}
}

// TestReplyCacheKeySpread: consecutive sequence numbers from one
// client must not pile onto one shard — the hash, not the raw key,
// picks the shard.
func TestReplyCacheKeySpread(t *testing.T) {
	c := NewReplyCacheSharded(1024, 8)
	hit := make(map[uint64]int)
	const cid = uint64(7) << 32
	for seq := uint64(0); seq < 256; seq++ {
		hit[shardHash(cid|seq)&c.mask]++
	}
	if len(hit) != 8 {
		t.Fatalf("256 consecutive seqs touched %d/8 shards", len(hit))
	}
	for shard, n := range hit {
		if n > 256/2 {
			t.Fatalf("shard %d absorbed %d/256 consecutive seqs", shard, n)
		}
	}
}

// TestReplyCacheContentionCounter: holding a shard's lock while
// another goroutine needs it must register on the contention counter
// (and the stats endpoint) — the observability the scaling figure
// reads.
func TestReplyCacheContentionCounter(t *testing.T) {
	c := NewReplyCacheSharded(16, 2)
	e := stats.New(nil)
	c.SetStats(e)

	// Pin shard 0's lock directly (same-package test), then drive a
	// do() that needs it.
	var key uint64
	for shardHash(key)&c.mask != 0 {
		key++
	}
	s := &c.shards[0]
	s.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.do(key, nil, noReply)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for c.Contention() == 0 {
		if time.Now().After(deadline) {
			s.mu.Unlock()
			t.Fatal("contended lock acquisition never counted")
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.mu.Unlock()
	<-done
	if snap := e.Snapshot(); snap.ShardContention == 0 {
		t.Fatal("contention reached the counter but not the stats endpoint")
	}
}
