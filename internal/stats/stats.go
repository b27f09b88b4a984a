// Package stats is the runtime's observability layer: per-operation
// counters, lock-free latency histograms, byte/copy/alloc meters and
// a bounded call-trace ring, all designed so that the disabled path
// costs exactly one nil check and zero allocations.
//
// The central type is Endpoint: one per client or dispatcher, shared
// by every layer of that endpoint's call path (codec, session,
// transport). All methods are safe on a nil *Endpoint and on nil
// component pointers, which is what makes threading the meters
// through hot paths free when observability is off — callers never
// branch, they just call.
//
// Recording is wait-free: counters and histogram buckets are plain
// atomics, the trace ring overwrites oldest entries, and nothing
// takes a lock. Snapshots are taken with atomic loads and are
// internally consistent only per-counter (a snapshot may observe a
// call that has incremented calls but not yet latency); that is the
// usual and acceptable contract for monitoring counters.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// A Meter counts events and the bytes they moved. The zero value is
// ready to use; Add on a nil *Meter is a no-op.
type Meter struct {
	count atomic.Uint64
	bytes atomic.Uint64
}

// Add records one event moving n bytes.
func (m *Meter) Add(n int) {
	if m == nil {
		return
	}
	m.count.Add(1)
	if n > 0 {
		m.bytes.Add(uint64(n))
	}
}

// Snapshot returns the meter's current totals.
func (m *Meter) Snapshot() MeterSnapshot {
	if m == nil {
		return MeterSnapshot{}
	}
	return MeterSnapshot{Count: m.count.Load(), Bytes: m.bytes.Load()}
}

// MeterSnapshot is a point-in-time copy of a Meter.
type MeterSnapshot struct {
	Count uint64 `json:"count"`
	Bytes uint64 `json:"bytes"`
}

// Outcome classifies how a call ended, as seen by the recorder.
type Outcome uint8

const (
	// OK is a successful call.
	OK Outcome = iota
	// Failed is any error that is not a timeout or a handler panic.
	Failed
	// TimedOut is a deadline expiry (client-side classification).
	TimedOut
	// Panicked is a recovered handler panic (server-side).
	Panicked
)

// A Counter names one endpoint-wide event counter. The counter table
// below is the single place a counter is declared: to add one, add a
// constant here, a row to the table (its Text key and its Snapshot
// field) and the field to Snapshot — Add, Load, Snapshot, Merge and
// Text all iterate the table. The constants are in Text order.
type Counter uint8

const (
	// Session-layer failures that have no single op to bill: unparseable
	// or mis-checksummed request frames, replies discarded for a bad
	// checksum or frame, and retransmits of a key whose reply its client
	// had acknowledged (answered stale, not replayed).
	BadFrames Counter = iota
	CorruptReplies
	StaleRetransmits

	// Server concurrency: requests handed to a worker pool; reply-writer
	// flushes, the records they carried and the flushes that carried two
	// or more (see AddFlush); contended reply-cache shard lock
	// acquisitions; handler panics recovered by a transport server that
	// has no op row to bill.
	Queued
	Flushes
	FlushedRecords
	CoalescedWrites
	ShardContention
	HandlerPanics

	// Netpoll server runtime: readiness events delivered to registered
	// connections, connections registered with a poller over the
	// server's lifetime, and reads that ended mid-record (the partial
	// record waits in per-connection reassembly state for the next read).
	PollerWakeups
	PollerConnsRegistered
	PartialReads

	// Server overload: calls rejected with a pushback frame before
	// decode (the admission cap), and calls rejected because the server
	// is draining.
	Sheds
	DrainRejects

	// Client batching (see AddBatched), then client overload: pushback
	// replies received, and retries the retry budget refused to spend.
	BatchedCalls
	BatchFlushes
	Pushbacks
	RetrySuppressed

	numCounters
)

var counters = [numCounters]struct {
	key   string // Text key
	field func(*Snapshot) *uint64
}{
	BadFrames:             {"session.bad_frames", func(s *Snapshot) *uint64 { return &s.BadFrames }},
	CorruptReplies:        {"session.corrupt_replies", func(s *Snapshot) *uint64 { return &s.CorruptReplies }},
	StaleRetransmits:      {"session.stale_retransmits", func(s *Snapshot) *uint64 { return &s.StaleRetransmits }},
	Queued:                {"server.queued", func(s *Snapshot) *uint64 { return &s.Queued }},
	Flushes:               {"server.flushes", func(s *Snapshot) *uint64 { return &s.Flushes }},
	FlushedRecords:        {"server.flushed_records", func(s *Snapshot) *uint64 { return &s.FlushedRecords }},
	CoalescedWrites:       {"server.coalesced_writes", func(s *Snapshot) *uint64 { return &s.CoalescedWrites }},
	ShardContention:       {"server.shard_contention", func(s *Snapshot) *uint64 { return &s.ShardContention }},
	HandlerPanics:         {"server.handler_panics", func(s *Snapshot) *uint64 { return &s.HandlerPanics }},
	PollerWakeups:         {"server.poller_wakeups", func(s *Snapshot) *uint64 { return &s.PollerWakeups }},
	PollerConnsRegistered: {"server.poller_conns_registered", func(s *Snapshot) *uint64 { return &s.PollerConnsRegistered }},
	PartialReads:          {"server.partial_reads", func(s *Snapshot) *uint64 { return &s.PartialReads }},
	Sheds:                 {"server.sheds", func(s *Snapshot) *uint64 { return &s.Sheds }},
	DrainRejects:          {"server.drain_rejects", func(s *Snapshot) *uint64 { return &s.DrainRejects }},
	BatchedCalls:          {"client.batched_calls", func(s *Snapshot) *uint64 { return &s.BatchedCalls }},
	BatchFlushes:          {"client.batch_flushes", func(s *Snapshot) *uint64 { return &s.BatchFlushes }},
	Pushbacks:             {"client.pushbacks", func(s *Snapshot) *uint64 { return &s.Pushbacks }},
	RetrySuppressed:       {"client.retry_suppressed", func(s *Snapshot) *uint64 { return &s.RetrySuppressed }},
}

// An OpCounter names one column of the per-operation counter row; the
// table below declares them the way the Counter table does.
type OpCounter uint8

const (
	// OpCalls to OpTimeouts are written by RecordCall: timeouts and
	// panics also count as errors.
	OpCalls OpCounter = iota
	OpErrors
	// OpRetries counts retransmitted attempts, OpReplays replies served
	// from the at-most-once cache instead of re-executing the op.
	OpRetries
	OpReplays
	OpPanics
	OpTimeouts
	// OpBytesOut and OpBytesIn are marshaled request and reply sizes.
	OpBytesOut
	OpBytesIn
	// OpTracedMsgs and OpTracedBytes count [traced] parameter payloads
	// and their marshaled sizes.
	OpTracedMsgs
	OpTracedBytes

	numOpCounters
)

var opCounters = [numOpCounters]struct {
	key   string // Text key under "op.<name>."
	field func(*OpSnapshot) *uint64
}{
	OpCalls:       {"calls", func(o *OpSnapshot) *uint64 { return &o.Calls }},
	OpErrors:      {"errors", func(o *OpSnapshot) *uint64 { return &o.Errors }},
	OpRetries:     {"retries", func(o *OpSnapshot) *uint64 { return &o.Retries }},
	OpReplays:     {"replays", func(o *OpSnapshot) *uint64 { return &o.Replays }},
	OpPanics:      {"panics", func(o *OpSnapshot) *uint64 { return &o.Panics }},
	OpTimeouts:    {"timeouts", func(o *OpSnapshot) *uint64 { return &o.Timeouts }},
	OpBytesOut:    {"bytes_out", func(o *OpSnapshot) *uint64 { return &o.BytesOut }},
	OpBytesIn:     {"bytes_in", func(o *OpSnapshot) *uint64 { return &o.BytesIn }},
	OpTracedMsgs:  {"traced_msgs", func(o *OpSnapshot) *uint64 { return &o.TracedMsgs }},
	OpTracedBytes: {"traced_bytes", func(o *OpSnapshot) *uint64 { return &o.TracedBytes }},
}

// meters declares the endpoint's Meter fields the same way.
var meters = [...]struct {
	key  string // Text key
	live func(*Endpoint) *Meter
	snap func(*Snapshot) *MeterSnapshot
}{
	{"codec.encode", func(e *Endpoint) *Meter { return &e.Encode }, func(s *Snapshot) *MeterSnapshot { return &s.Encode }},
	{"codec.decode", func(e *Endpoint) *Meter { return &e.Decode }, func(s *Snapshot) *MeterSnapshot { return &s.Decode }},
	{"codec.copy", func(e *Endpoint) *Meter { return &e.Copy }, func(s *Snapshot) *MeterSnapshot { return &s.Copy }},
	{"codec.alloc", func(e *Endpoint) *Meter { return &e.Alloc }, func(s *Snapshot) *MeterSnapshot { return &s.Alloc }},
	{"wire", func(e *Endpoint) *Meter { return &e.Wire }, func(s *Snapshot) *MeterSnapshot { return &s.Wire }},
}

// opRow is the per-operation counter row. Everything is an atomic so
// rows can be updated concurrently without locks.
type opRow struct {
	counters [numOpCounters]atomic.Uint64
	lat      Histogram
}

func (r *opRow) add(c OpCounter, n int) {
	if n > 0 {
		r.counters[c].Add(uint64(n))
	}
}

// An Endpoint aggregates observability for one side of an interface:
// a client, a dispatcher, or a transport endpoint. Layers share one
// Endpoint so an operator sees a single coherent view per peer.
//
// A nil *Endpoint is the disabled state: every method no-ops.
type Endpoint struct {
	names []string
	ops   []opRow

	// Codec-layer meters: marshaled request/reply bytes produced and
	// consumed, plus the copies and fresh landing-buffer allocations
	// the compiled plan performed on behalf of the caller.
	Encode Meter
	Decode Meter
	Copy   Meter
	Alloc  Meter

	// Wire meters one frame per transport send or receive, including
	// session-layer retransmissions the op counters hide.
	Wire Meter

	counters [numCounters]atomic.Uint64

	tracer atomic.Pointer[Tracer]
	lastID atomic.Uint32
}

// New creates an Endpoint with one counter row per operation name,
// indexed in order.
func New(names []string) *Endpoint {
	return &Endpoint{
		names: append([]string(nil), names...),
		ops:   make([]opRow, len(names)),
	}
}

func (e *Endpoint) row(op int) *opRow {
	if e == nil || op < 0 || op >= len(e.ops) {
		return nil
	}
	return &e.ops[op]
}

// RecordCall records one completed call on op: its latency, the
// marshaled request/reply sizes, and its outcome. Timeouts and
// panics also count as errors.
func (e *Endpoint) RecordCall(op int, d time.Duration, bytesOut, bytesIn int, o Outcome) {
	r := e.row(op)
	if r == nil {
		return
	}
	r.add(OpCalls, 1)
	switch o {
	case Failed:
		r.add(OpErrors, 1)
	case TimedOut:
		r.add(OpErrors, 1)
		r.add(OpTimeouts, 1)
	case Panicked:
		r.add(OpErrors, 1)
		r.add(OpPanics, 1)
	}
	r.add(OpBytesOut, bytesOut)
	r.add(OpBytesIn, bytesIn)
	r.lat.Record(d)
}

// Add adds n to counter c; n <= 0 adds nothing.
func (e *Endpoint) Add(c Counter, n int) {
	if e != nil && n > 0 {
		e.counters[c].Add(uint64(n))
	}
}

// AddOp adds n to column c of op's row; an op out of range or n <= 0
// adds nothing.
func (e *Endpoint) AddOp(op int, c OpCounter, n int) {
	if r := e.row(op); r != nil {
		r.add(c, n)
	}
}

// AddFlush counts one reply-writer flush carrying records reply
// records. A flush of two or more records is a coalesced write: those
// records shared one syscall instead of taking one each.
func (e *Endpoint) AddFlush(records int) {
	if records <= 0 {
		return
	}
	e.Add(Flushes, 1)
	e.Add(FlushedRecords, records)
	if records >= 2 {
		e.Add(CoalescedWrites, 1)
	}
}

// AddBatched counts one client batch flush carrying n calls in a
// single session frame.
func (e *Endpoint) AddBatched(n int) {
	if n <= 0 {
		return
	}
	e.Add(BatchFlushes, 1)
	e.Add(BatchedCalls, n)
}

// Load reads counter c without taking a snapshot — for pollers that
// wait on one counter.
func (e *Endpoint) Load(c Counter) uint64 {
	if e == nil {
		return 0
	}
	return e.counters[c].Load()
}

// OpSnapshot is the point-in-time counter row of one operation.
type OpSnapshot struct {
	Name        string            `json:"name"`
	Calls       uint64            `json:"calls"`
	Errors      uint64            `json:"errors,omitempty"`
	Retries     uint64            `json:"retries,omitempty"`
	Replays     uint64            `json:"replays,omitempty"`
	Panics      uint64            `json:"panics,omitempty"`
	Timeouts    uint64            `json:"timeouts,omitempty"`
	BytesOut    uint64            `json:"bytes_out,omitempty"`
	BytesIn     uint64            `json:"bytes_in,omitempty"`
	TracedMsgs  uint64            `json:"traced_msgs,omitempty"`
	TracedBytes uint64            `json:"traced_bytes,omitempty"`
	Latency     HistogramSnapshot `json:"latency"`
}

// Snapshot is a point-in-time copy of an Endpoint, safe to retain,
// merge and serialize.
type Snapshot struct {
	Ops            []OpSnapshot  `json:"ops"`
	Encode         MeterSnapshot `json:"encode"`
	Decode         MeterSnapshot `json:"decode"`
	Copy           MeterSnapshot `json:"copy"`
	Alloc          MeterSnapshot `json:"alloc"`
	Wire           MeterSnapshot `json:"wire"`
	BadFrames      uint64        `json:"bad_frames,omitempty"`
	CorruptReplies uint64        `json:"corrupt_replies,omitempty"`

	StaleRetransmits uint64 `json:"stale_retransmits,omitempty"`

	Queued          uint64 `json:"queued,omitempty"`
	Flushes         uint64 `json:"flushes,omitempty"`
	FlushedRecords  uint64 `json:"flushed_records,omitempty"`
	CoalescedWrites uint64 `json:"coalesced_writes,omitempty"`
	BatchedCalls    uint64 `json:"batched_calls,omitempty"`
	BatchFlushes    uint64 `json:"batch_flushes,omitempty"`
	ShardContention uint64 `json:"shard_contention,omitempty"`
	HandlerPanics   uint64 `json:"handler_panics,omitempty"`

	PollerWakeups         uint64 `json:"poller_wakeups,omitempty"`
	PollerConnsRegistered uint64 `json:"poller_conns_registered,omitempty"`
	PartialReads          uint64 `json:"partial_reads,omitempty"`

	Sheds           uint64 `json:"sheds,omitempty"`
	DrainRejects    uint64 `json:"drain_rejects,omitempty"`
	Pushbacks       uint64 `json:"pushbacks,omitempty"`
	RetrySuppressed uint64 `json:"retry_suppressed,omitempty"`

	Trace []TraceEvent `json:"trace,omitempty"`
}

// Snapshot copies the endpoint's counters. On a nil endpoint it
// returns an empty, non-nil snapshot so callers can render it
// unconditionally.
func (e *Endpoint) Snapshot() *Snapshot {
	s := &Snapshot{}
	if e == nil {
		return s
	}
	s.Ops = make([]OpSnapshot, len(e.ops))
	for i := range e.ops {
		r, o := &e.ops[i], &s.Ops[i]
		o.Name = e.names[i]
		for c := range opCounters {
			*opCounters[c].field(o) = r.counters[c].Load()
		}
		o.Latency = r.lat.Snapshot()
	}
	for _, m := range meters {
		*m.snap(s) = m.live(e).Snapshot()
	}
	for c := range counters {
		*counters[c].field(s) = e.counters[c].Load()
	}
	if tr := e.tracer.Load(); tr != nil {
		s.Trace = tr.Events()
	}
	return s
}

// Merge folds o into s (op rows matched by name, appended when new;
// counters, meters and histograms added; traces concatenated by time).
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	idx := make(map[string]int, len(s.Ops))
	for i := range s.Ops {
		idx[s.Ops[i].Name] = i
	}
	for i := range o.Ops {
		op := &o.Ops[i]
		j, ok := idx[op.Name]
		if !ok {
			s.Ops = append(s.Ops, *op)
			continue
		}
		d := &s.Ops[j]
		for c := range opCounters {
			*opCounters[c].field(d) += *opCounters[c].field(op)
		}
		d.Latency.Merge(&op.Latency)
	}
	for _, m := range meters {
		d, src := m.snap(s), m.snap(o)
		d.Count += src.Count
		d.Bytes += src.Bytes
	}
	for c := range counters {
		*counters[c].field(s) += *counters[c].field(o)
	}
	s.Trace = append(s.Trace, o.Trace...)
	sort.SliceStable(s.Trace, func(i, j int) bool { return s.Trace[i].At < s.Trace[j].At })
}

// Text renders the snapshot as expvar-style "key value" lines, one
// metric per line, stable order. A counter at zero is left out, except
// an op's call count.
func (s *Snapshot) Text() string {
	var b strings.Builder
	line := func(key string, v uint64) {
		if v != 0 {
			fmt.Fprintf(&b, "%s %d\n", key, v)
		}
	}
	for i := range s.Ops {
		op := &s.Ops[i]
		k := "op." + op.Name + "."
		fmt.Fprintf(&b, "%s%s %d\n", k, opCounters[OpCalls].key, op.Calls)
		for _, c := range opCounters[OpCalls+1:] {
			line(k+c.key, *c.field(op))
		}
		if op.Latency.Count > 0 {
			fmt.Fprintf(&b, "%slatency.p50_ns %d\n", k, op.Latency.Quantile(0.50).Nanoseconds())
			fmt.Fprintf(&b, "%slatency.p99_ns %d\n", k, op.Latency.Quantile(0.99).Nanoseconds())
			fmt.Fprintf(&b, "%slatency.mean_ns %d\n", k, op.Latency.Mean().Nanoseconds())
		}
	}
	for _, m := range meters {
		line(m.key+".count", m.snap(s).Count)
		line(m.key+".bytes", m.snap(s).Bytes)
	}
	for _, c := range counters {
		line(c.key, *c.field(s))
	}
	if len(s.Trace) > 0 {
		fmt.Fprintf(&b, "trace.events %d\n", len(s.Trace))
		for _, ev := range s.Trace {
			fmt.Fprintf(&b, "trace id=%d op=%d stage=%s at_ns=%d\n",
				ev.ID, ev.Op, ev.Stage, ev.At.Nanoseconds())
		}
	}
	return b.String()
}
