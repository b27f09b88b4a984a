package stats

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// A Stage names one point on the RPC call path. Stages are recorded
// client- and server-side under the same trace id, which the session
// layer carries in the upper bits of the existing frame flags word —
// the base wire format does not change.
type Stage uint8

const (
	// StageBind marks plan compilation / endpoint setup.
	StageBind Stage = iota + 1
	// StageEncode marks the request fully marshaled.
	StageEncode
	// StageSend marks the request handed to the transport.
	StageSend
	// StageRetry marks a retransmitted attempt.
	StageRetry
	// StageServerDecode marks the request unmarshaled server-side.
	StageServerDecode
	// StageDispatch marks the handler invoked.
	StageDispatch
	// StageServerReply marks the reply marshaled server-side.
	StageServerReply
	// StageReply marks the reply decoded back on the client.
	StageReply
)

var stageNames = [...]string{
	StageBind:         "bind",
	StageEncode:       "encode",
	StageSend:         "send",
	StageRetry:        "retry",
	StageServerDecode: "server-decode",
	StageDispatch:     "dispatch",
	StageServerReply:  "server-reply",
	StageReply:        "reply",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) && stageNames[s] != "" {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// A TraceEvent is one recorded stage crossing. At is the offset from
// tracer creation, not wall time, so events order correctly across
// clock adjustments.
type TraceEvent struct {
	ID    uint32        `json:"id"`
	Op    uint16        `json:"op"`
	Stage Stage         `json:"stage"`
	At    time.Duration `json:"at_ns"`
}

// A Tracer is a fixed-capacity ring of trace events. Recording is
// wait-free: a slot index is claimed with one atomic add and the
// event stored with two atomic writes. Under contention a reader may
// observe a slot mid-update (meta from one event, timestamp from
// another); traces are diagnostics, so that skew is accepted in
// exchange for a zero-lock hot path.
type Tracer struct {
	base  time.Time
	mask  uint64
	pos   atomic.Uint64
	slots []traceSlot
}

type traceSlot struct {
	meta atomic.Uint64 // id(32) | op(16) | stage(8) | valid(1)
	at   atomic.Uint64 // nanoseconds since base
}

const slotValid = 1 << 63

// newTracer creates a tracer holding the most recent capacity events
// (rounded up to a power of two, minimum 16).
func newTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	n := 1 << bits.Len(uint(capacity-1))
	return &Tracer{
		base:  time.Now(),
		mask:  uint64(n - 1),
		slots: make([]traceSlot, n),
	}
}

// Record appends one event, overwriting the oldest when full.
func (t *Tracer) Record(id uint32, op int, s Stage) {
	if t == nil {
		return
	}
	i := (t.pos.Add(1) - 1) & t.mask
	sl := &t.slots[i]
	sl.at.Store(uint64(time.Since(t.base)))
	sl.meta.Store(slotValid | uint64(id)<<24 | uint64(uint16(op))<<8 | uint64(s))
}

// Events returns the buffered events ordered by time.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	out := make([]TraceEvent, 0, len(t.slots))
	for i := range t.slots {
		m := t.slots[i].meta.Load()
		if m&slotValid == 0 {
			continue
		}
		out = append(out, TraceEvent{
			ID:    uint32(m >> 24 & 0xFFFFFFFF),
			Op:    uint16(m >> 8),
			Stage: Stage(m),
			At:    time.Duration(t.slots[i].at.Load()),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// EnableTracing installs a trace ring of the given capacity on the
// endpoint (idempotent: an existing tracer is kept). Tracing off —
// the default — costs one atomic pointer load per would-be event.
func (e *Endpoint) EnableTracing(capacity int) {
	if e == nil || e.tracer.Load() != nil {
		return
	}
	e.tracer.CompareAndSwap(nil, newTracer(capacity))
}

// NextTraceID returns a fresh non-zero 16-bit trace id, or 0 when
// tracing is disabled — 0 is the "untraced" id the session layer
// propagates for free.
func (e *Endpoint) NextTraceID() uint32 {
	if e == nil || e.tracer.Load() == nil {
		return 0
	}
	for {
		if id := e.lastID.Add(1) & 0xFFFF; id != 0 {
			return id
		}
	}
}

// Trace records one event when tracing is enabled.
func (e *Endpoint) Trace(id uint32, op int, s Stage) {
	if e == nil {
		return
	}
	e.tracer.Load().Record(id, op, s)
}
