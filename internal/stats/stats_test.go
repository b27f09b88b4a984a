package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// Every method must be a no-op on a nil endpoint — that is what makes
// threading the meters through hot paths free when stats are off.
func TestNilEndpointIsSafe(t *testing.T) {
	var e *Endpoint
	e.RecordCall(0, time.Millisecond, 1, 2, OK)
	e.AddOp(0, OpRetries, 1)
	e.Add(BadFrames, 1)
	e.AddFlush(2)
	e.AddBatched(2)
	if got := e.Load(BadFrames); got != 0 {
		t.Fatalf("Load on nil = %d, want 0", got)
	}
	e.EnableTracing(64)
	if id := e.NextTraceID(); id != 0 {
		t.Fatalf("NextTraceID on nil = %d, want 0", id)
	}
	e.Trace(1, 0, StageEncode)
	s := e.Snapshot()
	if s == nil {
		t.Fatal("Snapshot on nil endpoint is nil")
	}
	if len(s.Ops) != 0 || s.Wire.Count != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
	var m *Meter
	m.Add(5)
	if ms := m.Snapshot(); ms != (MeterSnapshot{}) {
		t.Fatalf("nil meter snapshot = %+v", ms)
	}
}

func TestRecordCallOutcomes(t *testing.T) {
	e := New([]string{"echo", "write"})
	e.RecordCall(0, time.Millisecond, 10, 20, OK)
	e.RecordCall(0, time.Millisecond, 0, 0, Failed)
	e.RecordCall(0, 2*time.Second, 0, 0, TimedOut)
	e.RecordCall(1, time.Microsecond, 0, 0, Panicked)
	e.RecordCall(-1, time.Second, 0, 0, OK) // out of range: ignored
	e.RecordCall(7, time.Second, 0, 0, OK)  // out of range: ignored
	e.AddOp(0, OpRetries, 1)
	e.AddOp(1, OpReplays, 1)
	e.AddOp(0, OpTracedMsgs, 1)
	e.AddOp(0, OpTracedBytes, 64)
	e.AddOp(7, OpRetries, 1)  // out of range: ignored
	e.AddOp(0, OpRetries, -3) // nothing to add: ignored

	s := e.Snapshot()
	echo := s.Ops[0]
	if echo.Calls != 3 || echo.Errors != 2 || echo.Timeouts != 1 {
		t.Fatalf("echo counters: %+v", echo)
	}
	if echo.BytesOut != 10 || echo.BytesIn != 20 {
		t.Fatalf("echo bytes: %+v", echo)
	}
	if echo.Retries != 1 || echo.TracedMsgs != 1 || echo.TracedBytes != 64 {
		t.Fatalf("echo retry/traced: %+v", echo)
	}
	if echo.Latency.Count != 3 {
		t.Fatalf("echo latency count = %d", echo.Latency.Count)
	}
	wr := s.Ops[1]
	if wr.Calls != 1 || wr.Panics != 1 || wr.Errors != 1 || wr.Replays != 1 {
		t.Fatalf("write counters: %+v", wr)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	h.Record(-5) // negative durations clamp to 0
	h.Record(1)
	h.Record(100)
	h.Record(time.Hour * 100) // far past the 2^40 ns range cap
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	// 100 = 0b1100100: octave [64,128), sub-bucket (100>>2)-16 = 9,
	// covering [100,104).
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[3*histSub+9] != 1 || s.Buckets[HistBuckets-1] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := s.Quantile(0.5); q != 1 {
		t.Fatalf("q50 = %v", q)
	}
	if q := s.Quantile(0.75); q != 101 {
		t.Fatalf("q75 = %v, want the midpoint of [100,104)", q)
	}
	if q := s.Quantile(1); q < 1<<39 {
		t.Fatalf("q100 = %v, want a value in the last octave", q)
	}
	// Every bucket boundary: exact below histSub, and above it each
	// value maps to the bucket whose midpoint is within 1/32 of it.
	for ns := uint64(0); ns < 1<<12; ns++ {
		mid := float64(bucketMid(bucketOf(ns)))
		if ns < histSub && mid != float64(ns) {
			t.Fatalf("%d ns is not exact: midpoint %v", ns, mid)
		}
		if d := mid - float64(ns); d > float64(ns)/32 || -d > float64(ns)/32 {
			t.Fatalf("%d ns reports as %v", ns, mid)
		}
	}
	for i := 1; i < HistBuckets; i++ {
		if bucketMid(i) <= bucketMid(i-1) {
			t.Fatalf("bucket %d midpoint %v not above bucket %d's %v", i, bucketMid(i), i-1, bucketMid(i-1))
		}
		if got := bucketOf(uint64(bucketMid(i))); got != i {
			t.Fatalf("midpoint of bucket %d maps to bucket %d", i, got)
		}
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	var nilH *Histogram
	nilH.Record(time.Second) // must not panic
	if nilH.Snapshot().Count != 0 {
		t.Fatal("nil histogram recorded")
	}
}

// TestHistogramQuantilesTrackOrderStatistics is the property the
// log-linear layout exists for: over seeded random samples spanning
// 50 ns to 10 s, every reported quantile is within one bucket width
// (6.25%) of the exact order statistic, and merging two snapshots is
// the same as recording both streams into one histogram.
func TestHistogramQuantilesTrackOrderStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(20261003))
	for trial := 0; trial < 20; trial++ {
		n := 1000 + rng.Intn(20000)
		var a, b, both Histogram
		samples := make([]time.Duration, n)
		for i := range samples {
			// Log-uniform over 50 ns .. 10 s, so every octave is hit.
			d := time.Duration(50 * math.Pow(2e8, rng.Float64()))
			samples[i] = d
			if i%3 == 0 {
				a.Record(d)
			} else {
				b.Record(d)
			}
			both.Record(d)
		}
		merged, bs := a.Snapshot(), b.Snapshot()
		merged.Merge(&bs)
		if merged != both.Snapshot() {
			t.Fatalf("trial %d: merge of two snapshots differs from recording both streams", trial)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			exact := samples[int(q*float64(n-1))]
			got := merged.Quantile(q)
			if err := math.Abs(float64(got-exact)) / float64(exact); err > 0.0625 {
				t.Fatalf("trial %d (n=%d): q%v = %v, exact %v (off by %.2f%%)", trial, n, q, got, exact, 100*err)
			}
		}
	}
}

func TestHistogramMergeMatchesCombinedRecording(t *testing.T) {
	var a, b, both Histogram
	durs := []time.Duration{0, 5, 300, time.Millisecond, time.Second, 17 * time.Microsecond}
	for i, d := range durs {
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
		both.Record(d)
	}
	merged := a.Snapshot()
	bs := b.Snapshot()
	merged.Merge(&bs)
	if merged != both.Snapshot() {
		t.Fatalf("merge mismatch:\n  merged %+v\n  direct %+v", merged, both.Snapshot())
	}
}

func TestConcurrentRecording(t *testing.T) {
	e := New([]string{"echo"})
	e.EnableTracing(128)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := e.NextTraceID()
				e.Trace(id, 0, StageEncode)
				e.RecordCall(0, time.Duration(i), 1, 1, OK)
				e.Wire.Add(10)
				e.Add(Queued, 1)
			}
		}()
	}
	wg.Wait()
	s := e.Snapshot()
	if s.Ops[0].Calls != workers*per {
		t.Fatalf("calls = %d, want %d", s.Ops[0].Calls, workers*per)
	}
	// Nothing is lost: the count is the bucket sum, and the nanosecond
	// total is exactly workers * (0 + 1 + ... + per-1).
	if lat := s.Ops[0].Latency; lat.Count != workers*per || lat.SumNs != workers*per*(per-1)/2 {
		t.Fatalf("latency count = %d, sum = %d ns", lat.Count, lat.SumNs)
	}
	if s.Queued != workers*per || e.Load(Queued) != workers*per {
		t.Fatalf("queued = %d (Load %d), want %d", s.Queued, e.Load(Queued), workers*per)
	}
	if s.Wire.Count != workers*per || s.Wire.Bytes != workers*per*10 {
		t.Fatalf("wire = %+v", s.Wire)
	}
	if len(s.Trace) != 128 {
		t.Fatalf("trace ring kept %d events, want 128", len(s.Trace))
	}
}

func TestTracerRingOverwritesOldest(t *testing.T) {
	tr := newTracer(16)
	for i := 0; i < 40; i++ {
		tr.Record(uint32(i+1), i%3, StageSend)
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("got %d events, want 16", len(evs))
	}
	// Only the most recent 16 ids survive.
	for _, ev := range evs {
		if ev.ID <= 24 {
			t.Fatalf("stale event survived: %+v", ev)
		}
	}
}

func TestTraceIDsAreNonZeroAndBounded(t *testing.T) {
	e := New([]string{"echo"})
	if id := e.NextTraceID(); id != 0 {
		t.Fatalf("id before tracing = %d, want 0", id)
	}
	e.EnableTracing(16)
	seen := map[uint32]bool{}
	for i := 0; i < 1<<17; i++ {
		id := e.NextTraceID()
		if id == 0 || id > 0xFFFF {
			t.Fatalf("id %d out of the 16-bit flag field", id)
		}
		seen[id] = true
	}
	if len(seen) != 0xFFFF {
		t.Fatalf("id space covered %d values, want %d", len(seen), 0xFFFF)
	}
}

// TestSnapshotMergeAndText pins the rendered form: the keys below are
// the golden for Text(), byte for byte, whatever builds it.
func TestSnapshotMergeAndText(t *testing.T) {
	a := New([]string{"echo"})
	b := New([]string{"echo", "write"})
	a.RecordCall(0, time.Millisecond, 5, 5, OK)
	a.Encode.Add(5)
	a.Add(BadFrames, 1)
	a.AddFlush(3)
	b.RecordCall(0, time.Millisecond, 0, 0, Failed)
	b.RecordCall(1, time.Second, 0, 0, OK)
	b.Wire.Add(100)
	b.AddFlush(1)
	b.AddBatched(4)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if len(s.Ops) != 2 {
		t.Fatalf("merged ops = %d", len(s.Ops))
	}
	// 1 ms falls in a 32768 ns wide bucket, 1 s in a 2^25 ns wide one;
	// the quantiles are those buckets' midpoints, the means are exact.
	const want = `op.echo.calls 2
op.echo.errors 1
op.echo.bytes_out 5
op.echo.bytes_in 5
op.echo.latency.p50_ns 999423
op.echo.latency.p99_ns 999423
op.echo.latency.mean_ns 1000000
op.write.calls 1
op.write.latency.p50_ns 989855743
op.write.latency.p99_ns 989855743
op.write.latency.mean_ns 1000000000
codec.encode.count 1
codec.encode.bytes 5
wire.count 1
wire.bytes 100
session.bad_frames 1
server.flushes 2
server.flushed_records 4
server.coalesced_writes 1
client.batched_calls 4
client.batch_flushes 1
`
	if got := s.Text(); got != want {
		t.Fatalf("Text() =\n%s\nwant\n%s", got, want)
	}
}

// TestCounterTablesAreComplete checks the tables against the schema by
// reflection, so a counter cannot be half-added: every Counter, every
// OpCounter and every Meter, set to a distinct value, shows up in
// exactly one uint64 of Snapshot(), no other field is set, each key is
// unique, Merge sums it and Text prints it under its key.
func TestCounterTablesAreComplete(t *testing.T) {
	e := New([]string{"op"})
	next := 1000
	want := map[string]uint64{} // Text key -> value
	set := func(key string, add func(n int)) {
		next++
		if _, dup := want[key]; dup {
			t.Fatalf("key %q declared twice", key)
		}
		want[key] = uint64(next)
		add(next)
	}
	for c := Counter(0); c < numCounters; c++ {
		if counters[c].key == "" || counters[c].field == nil {
			t.Fatalf("Counter %d has no table row", c)
		}
		set(counters[c].key, func(n int) { e.Add(c, n) })
	}
	for c := OpCounter(0); c < numOpCounters; c++ {
		if opCounters[c].key == "" || opCounters[c].field == nil {
			t.Fatalf("OpCounter %d has no table row", c)
		}
		set("op.op."+opCounters[c].key, func(n int) { e.AddOp(0, c, n) })
	}
	for _, m := range meters {
		// One event of n bytes, then n-2 empty ones: count n-1 (a value
		// skipped for it), bytes n.
		next++
		set(m.key+".bytes", func(n int) {
			for m.live(e).Add(n); n > 2; n-- {
				m.live(e).Add(0)
			}
		})
		want[m.key+".count"] = want[m.key+".bytes"] - 1
	}

	// Every uint64 the schema declares (histograms aside), by path.
	s := e.Snapshot()
	schema := map[string]uint64{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch {
		case v.Kind() == reflect.Uint64:
			schema[path] = v.Uint()
		case v.Kind() == reflect.Struct && v.Type() != reflect.TypeOf(HistogramSnapshot{}):
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case v.Kind() == reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		}
	}
	walk("Snapshot", reflect.ValueOf(*s))
	// Each value set above lands in exactly one field, and no field is
	// left at zero: a Snapshot field without a table row fails here.
	var got, wantVals []uint64
	for path, v := range schema {
		if v == 0 {
			t.Errorf("schema field %s: no table row writes it", path)
		}
		got = append(got, v)
	}
	for _, v := range want {
		wantVals = append(wantVals, v)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(wantVals, func(i, j int) bool { return wantVals[i] < wantVals[j] })
	for i := 1; i < len(wantVals); i++ {
		if wantVals[i] == wantVals[i-1] {
			t.Fatalf("test bug: value %d set twice", wantVals[i])
		}
	}
	if !reflect.DeepEqual(got, wantVals) {
		t.Fatalf("Snapshot() holds %v\nwant each of %v exactly once", got, wantVals)
	}

	s.Merge(e.Snapshot())
	text := s.Text()
	for key, v := range want {
		line := fmt.Sprintf("%s %d\n", key, 2*v)
		if n := strings.Count(text, line); n != 1 {
			t.Fatalf("Text() has %d lines %q after a self-merge:\n%s", n, line, text)
		}
	}
	if n := strings.Count(text, "\n"); n != len(want) {
		t.Fatalf("Text() has %d lines, want one per counter (%d):\n%s", n, len(want), text)
	}
}

// The recording side allocates nothing.
func TestRecordZeroAllocs(t *testing.T) {
	e := New([]string{"a", "b"})
	if n := testing.AllocsPerRun(100, func() {
		e.RecordCall(1, 3*time.Millisecond, 10, 20, TimedOut)
		e.Add(Sheds, 1)
		e.AddOp(0, OpRetries, 1)
		e.AddFlush(2)
	}); n != 0 {
		t.Fatalf("recording allocates %v per run, want 0", n)
	}
	lat := e.Snapshot().Ops[1].Latency
	if lat.Count != 101 || lat.Quantile(0.5) < 2900*time.Microsecond || lat.Quantile(0.5) > 3100*time.Microsecond {
		t.Fatalf("latency count %d p50 %v", lat.Count, lat.Quantile(0.5))
	}
}

func TestStageStrings(t *testing.T) {
	for s := StageBind; int(s) < len(stageNames); s++ {
		if strings.HasPrefix(s.String(), "stage(") {
			t.Fatalf("stage %d has no name", s)
		}
	}
	if Stage(99).String() != "stage(99)" {
		t.Fatalf("unknown stage renders %q", Stage(99).String())
	}
}
