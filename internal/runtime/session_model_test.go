package runtime

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
)

// A small-scope model checker for the session protocol. Two clients run
// the client half exactly as RobustConn does — clientState draws seqs
// and acks, appendRequest frames, readReply reads, retryStep decides —
// against a real SessionServer over a one-shard ReplyCache of capacity
// 2, whose handler echoes its caller's tag and logs the execution. A
// channel between them may drop, duplicate, reorder and corrupt frames.
// The checker enumerates every schedule up to a number of frames put on
// the channel, merging states that hash alike, and checks after every
// step:
//
//   - at most one execution per (client, seq) while the cache remembers
//     the key: the last capacity executions hold no key twice (with no
//     cache, no execution repeats at all);
//   - the cache remembers exactly the keys of the last capacity
//     executions, whether or not clients acknowledge;
//   - every completed call's reply is its own;
//   - no reply bytes are held for a key its client acknowledged after
//     the key executed;
//   - no call makes more than MaxAttempts attempts.
//
// Nothing here re-implements the protocol: the spec is stated over the
// model's own log of executions. A violation fails with the schedule
// that reached it.

// modelConfig is one scope of the search.
type modelConfig struct {
	cids       [2]uint32
	atMostOnce bool // the clients declare an at-most-once session
	cache      bool // the server has a reply cache
	calls      int  // calls per client, at most modelMaxCalls
	frames     int  // frames the channel may carry in all
	faults     int  // drops, duplicates and corruptions in all
}

const (
	modelCapacity    = 2
	modelMaxAttempts = 3
	modelMaxCalls    = 4
)

// modelCodec is the IDL, plan and dispatcher every world shares; the
// handler logs into whichever world is being run.
type modelCodec struct {
	plan *Plan
	disp *Dispatcher
	echo int
	cur  *modelWorld
}

func newModelCodec(t testing.TB) *modelCodec {
	t.Helper()
	f, err := corba.Parse("m.idl", `interface M { long echo(in long tag); };`)
	if err != nil {
		t.Fatal(err)
	}
	p := pres.Default(f.Interface("M"), pres.StyleCORBA)
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := &modelCodec{plan: plan, disp: NewDispatcher(p), echo: plan.OpIndex("echo")}
	m.disp.Handle("echo", func(c *Call) error {
		tag := c.Arg(0).(int32)
		m.cur.executed(tag)
		c.SetResult(tag)
		return nil
	})
	return m
}

// Client phases.
const (
	phaseIdle    = iota // between calls: the next one may start
	phaseWaiting        // an attempt is outstanding
	phaseRetry          // the retry step said retry: the frame goes out again
	phaseDone           // every call made
)

type modelClient struct {
	clientState
	phase   int
	call    int // calls completed
	seq     uint32
	frame   []byte
	ack     uint64 // the key the frame acknowledges; 0 for none
	step    retryStep
	xid     int                  // the outstanding attempt, as the transport matches replies
	results [modelMaxCalls]uint8 // per completed call: 1 failed, 2 returned its reply
}

// modelMsg is one frame on the channel.
type modelMsg struct {
	reply  bool
	client int
	xid    int
	bytes  []byte // never written in place: a corruption copies
	intact bool
	ack    uint64 // a request's acknowledged key, as its client meant it; 0 for none
}

type modelWorld struct {
	cfg     *modelConfig
	m       *modelCodec
	sess    *SessionServer
	cache   *ReplyCache
	clients [2]modelClient
	channel []modelMsg
	xids    int
	frames  int
	faults  int
	log     []int32                  // tags in execution order
	keys    [2][modelMaxCalls]uint64 // the (cid, seq) key each call was sent under
	acked   []uint64                 // keys acknowledged after they executed
	policy  RetryPolicy
	bad     string   // the first violation
	steps   []string // the schedule so far, when verbose
	verbose bool
}

// modelAction is one step of a schedule.
type modelAction struct{ kind, i, v uint8 }

const (
	actSend = iota
	actTimeout
	actDeliver
	actDrop
	actDup
	actCorrupt
)

func newModelWorld(cfg *modelConfig, m *modelCodec) *modelWorld {
	w := &modelWorld{cfg: cfg, m: m, policy: RetryPolicy{MaxAttempts: modelMaxAttempts}.withDefaults()}
	if cfg.cache {
		w.cache = NewReplyCacheSharded(modelCapacity, 1)
	}
	w.sess = NewSessionServer(m.disp, m.plan, w.cache)
	for i := range w.clients {
		w.clients[i].rng = 1
	}
	return w
}

// clone copies w for a step of its own. The server is shared until the
// step delivers it a frame (deliverRequest copies it then).
func (w *modelWorld) clone() *modelWorld {
	n := *w
	n.channel = slices.Clone(w.channel)
	n.log = slices.Clone(w.log)
	n.acked = slices.Clone(w.acked)
	return &n
}

// cloneReplyCache copies c's bookkeeping. Retained reply bytes are
// shared, read only: the copy's chunks are clipped to their fill marks,
// and its free list holds one small chunk of its own, so the copy never
// writes into the original's memory, nor allocates a standard-size
// chunk for a model's few bytes of replies.
func cloneReplyCache(c *ReplyCache) *ReplyCache {
	n := &ReplyCache{shards: make([]replyShard, len(c.shards)), mask: c.mask}
	for i := range c.shards {
		s, d := &c.shards[i], &n.shards[i]
		d.done.L = &d.mu
		d.cap, d.head, d.base = s.cap, s.head, s.base
		d.index = maps.Clone(s.index)
		d.ring = slices.Clone(s.ring)
		d.chunks = slices.Clone(s.chunks)
		for j := range d.chunks {
			d.chunks[j].buf = slices.Clip(d.chunks[j].buf)
		}
		d.free = [][]byte{make([]byte, 0, 256)}
	}
	return n
}

func (w *modelWorld) fail(format string, args ...any) {
	if w.bad == "" {
		w.bad = fmt.Sprintf(format, args...)
	}
}

func (w *modelWorld) note(format string, args ...any) {
	if w.verbose {
		w.steps = append(w.steps, fmt.Sprintf(format, args...))
	}
}

// modelTag names client c's call n.
func modelTag(c, n int) int32 { return int32(16*(c+1) + n) }

func (w *modelWorld) keyOf(tag int32) uint64 { return w.keys[tag/16-1][tag%16] }

// window is the tail of the execution log the cache must remember.
func (w *modelWorld) window() []int32 {
	if !w.cfg.cache || len(w.log) <= modelCapacity {
		return w.log
	}
	return w.log[len(w.log)-modelCapacity:]
}

// executed runs inside the handler, before the reply exists.
func (w *modelWorld) executed(tag int32) {
	if slices.Contains(w.window(), tag) {
		w.fail("call %#x executed again under key %#x, within the last %d executions (all, with no cache)", tag, w.keyOf(tag), modelCapacity)
	}
	w.log = append(w.log, tag)
	w.acked = slices.DeleteFunc(w.acked, func(k uint64) bool { return k == w.keyOf(tag) })
}

// enabled lists the actions open in this state.
func (w *modelWorld) enabled() []modelAction {
	var acts []modelAction
	canFrame, canFault := w.frames < w.cfg.frames, w.faults < w.cfg.faults
	for i := range w.clients {
		c := &w.clients[i]
		if canFrame && (c.phase == phaseIdle || c.phase == phaseRetry) {
			acts = append(acts, modelAction{actSend, uint8(i), 0})
		}
		if c.phase == phaseWaiting {
			acts = append(acts, modelAction{actTimeout, uint8(i), 0})
		}
	}
	for i, msg := range w.channel {
		if msg.reply || canFrame {
			acts = append(acts, modelAction{actDeliver, uint8(i), 0})
		}
		if canFault {
			acts = append(acts, modelAction{actDrop, uint8(i), 0})
			if canFrame {
				acts = append(acts, modelAction{actDup, uint8(i), 0})
			}
			if msg.intact {
				for v := range uint8(4) {
					if !msg.reply || v < 2 {
						acts = append(acts, modelAction{actCorrupt, uint8(i), v})
					}
				}
			}
		}
	}
	return acts
}

// apply runs one action.
func (w *modelWorld) apply(a modelAction) {
	switch a.kind {
	case actSend:
		w.send(int(a.i))
	case actTimeout:
		w.note("c%d: attempt %d times out", a.i, w.clients[a.i].step.attempt+1)
		w.finishAttempt(int(a.i), attemptFault, nil)
	case actDeliver:
		msg := w.take(int(a.i))
		if msg.reply {
			w.deliverReply(msg)
		} else {
			w.deliverRequest(msg)
		}
	case actDrop:
		w.faults++
		w.note("drop %v", w.take(int(a.i)))
	case actDup:
		w.faults++
		w.frames++
		w.channel = append(w.channel, w.channel[a.i])
		w.note("duplicate %v", w.channel[a.i])
	case actCorrupt:
		w.faults++
		msg := &w.channel[a.i]
		msg.bytes, msg.intact = slices.Clone(msg.bytes), false
		b := msg.bytes
		var what string
		switch {
		case msg.reply && a.v == 0:
			b[3] ^= sessStale
			what = "status word"
		case a.v == 0:
			b[3] ^= 3
			what = "cid"
		case a.v == 1 && !msg.reply:
			b[7] ^= 1
			what = "seq"
		case a.v == 2:
			b[11] ^= 1 << ackShift
			what = "ack bits"
		default:
			b[len(b)-1] ^= 1
			what = "last byte"
		}
		w.note("corrupt the %s of %v", what, *msg)
	}
}

func (m modelMsg) String() string {
	kind := "request"
	if m.reply {
		kind = "reply"
	}
	return fmt.Sprintf("c%d's %s (xid %d)", m.client, kind, m.xid)
}

func (w *modelWorld) take(i int) modelMsg {
	msg := w.channel[i]
	w.channel = slices.Delete(w.channel, i, i+1)
	return msg
}

func (w *modelWorld) put(msg modelMsg) {
	w.frames++
	w.channel = append(w.channel, msg)
}

// send starts client i's next call, or its retry: the frame goes out
// under a fresh transport xid.
func (w *modelWorld) send(i int) {
	c := &w.clients[i]
	if c.phase == phaseIdle {
		tag := modelTag(i, c.call)
		seq, ack := c.nextSeq()
		enc := XDRCodec.NewEncoder()
		if err := w.m.plan.Ops[w.m.echo].EncodeRequest(enc, []Value{tag}); err != nil {
			panic(err)
		}
		c.seq, c.step, c.ack = seq, retryStep{}, 0
		if ack != 0 {
			c.ack = uint64(w.cfg.cids[i])<<32 | uint64(seq-ack)
		}
		c.frame = appendRequest(nil, &reqHeader{cid: w.cfg.cids[i], seq: seq, ackDist: ack}, enc.Bytes())
		w.keys[i][c.call] = uint64(w.cfg.cids[i])<<32 | uint64(seq)
		acks := "no ack"
		if ack != 0 {
			acks = fmt.Sprintf("acknowledging seq %d", seq-ack)
		}
		w.note("c%d calls %#x as cid %d seq %d, %s", i, tag, w.cfg.cids[i], seq, acks)
	}
	if c.step.attempt >= w.policy.MaxAttempts {
		w.fail("c%d makes attempt %d, past MaxAttempts %d", i, c.step.attempt+1, w.policy.MaxAttempts)
	}
	w.xids++
	c.xid, c.phase = w.xids, phaseWaiting
	w.put(modelMsg{client: i, xid: c.xid, bytes: c.frame, intact: true, ack: c.ack})
	w.note("c%d sends attempt %d (xid %d)", i, c.step.attempt+1, c.xid)
}

func (w *modelWorld) deliverRequest(msg modelMsg) {
	// An intact frame's ack lands on a key that executed and is
	// remembered: from here on the cache holds no bytes for it.
	if msg.intact && msg.ack != 0 {
		for _, tag := range w.window() {
			if w.keyOf(tag) == msg.ack && !slices.Contains(w.acked, msg.ack) {
				w.acked = append(w.acked, msg.ack)
			}
		}
	}
	if w.cache != nil {
		w.cache = cloneReplyCache(w.cache)
	}
	w.sess = NewSessionServer(w.m.disp, w.m.plan, w.cache)
	n := len(w.log)
	w.m.cur = w
	rep := w.sess.HandleAppend(context.Background(), w.m.echo, msg.bytes, nil)
	if w.verbose {
		_, o, _ := readReply(rep)
		what := "replays"
		if len(w.log) > n {
			what = fmt.Sprintf("executes %#x", w.log[n])
		} else if o != attemptOK {
			what = "answers " + o.String()
		}
		w.note("deliver %v: the server %s", msg, what)
	}
	w.checkCache()
	w.put(modelMsg{reply: true, client: msg.client, xid: msg.xid, bytes: rep, intact: true})
}

// checkCache compares the cache with the model's log.
func (w *modelWorld) checkCache() {
	if w.cache == nil {
		return
	}
	s := &w.cache.shards[0]
	var want, got []uint64
	for _, tag := range w.window() {
		want = append(want, w.keyOf(tag))
	}
	for key, slot := range s.index {
		got = append(got, key)
		if slot == executing {
			w.fail("key %#x still executing after its frame was answered", key)
			continue
		}
		if e := &s.ring[slot]; slices.Contains(w.acked, key) && (!e.acked || e.frame != nil) {
			w.fail("the cache holds %d reply bytes for key %#x, acknowledged after it executed", len(e.frame), key)
		}
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		w.fail("the cache remembers keys %#x; the last %d executions were under %#x", got, modelCapacity, want)
	}
}

func (w *modelWorld) deliverReply(msg modelMsg) {
	c := &w.clients[msg.client]
	if c.phase != phaseWaiting || c.xid != msg.xid {
		w.note("deliver %v: no attempt waits for it", msg)
		return
	}
	body, o, _ := readReply(msg.bytes)
	w.note("deliver %v: %v", msg, o)
	w.finishAttempt(msg.client, o, body)
}

// finishAttempt runs the retry step on an attempt's outcome, and
// completes the call when it says so. The model has no admission, so
// no attempt is pushed back with advice.
func (w *modelWorld) finishAttempt(i int, o attemptOutcome, body []byte) {
	c := &w.clients[i]
	if act, _ := c.step.next(o, 0, &w.policy, w.cfg.atMostOnce); act != retryDone {
		c.phase = phaseRetry
		w.note("c%d: the retry step says retry", i)
		return
	}
	tag := modelTag(i, c.call)
	c.results[c.call] = 1
	if o == attemptOK {
		c.results[c.call] = 2
		got, err := decodeDoubled(w.m.plan, w.m.echo, body)
		if err != nil || got != tag {
			w.fail("c%d's call %#x returned the reply of %#x (err %v)", i, tag, got, err)
		}
	}
	w.note("c%d: call %#x completes: %v", i, tag, o)
	c.finished(c.seq)
	c.call++
	c.phase = phaseIdle
	if c.call == w.cfg.calls {
		c.phase = phaseDone
	}
}

// hash digests everything the rest of a schedule can depend on into
// buf. A transport xid enters only as whether its client still waits
// on it.
func (w *modelWorld) hash(buf []byte) uint64 {
	b := buf[:0]
	u := func(v ...uint64) {
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
	}
	u(uint64(w.frames), uint64(w.faults), uint64(len(w.log)))
	for _, tag := range w.log {
		u(uint64(tag))
	}
	for i := range w.clients {
		c := &w.clients[i]
		u(uint64(c.phase), uint64(c.call), uint64(c.seq), uint64(c.step.attempt), uint64(c.step.backoff),
			uint64(c.clientState.seq), uint64(c.ackLen))
		for k := 0; k < c.ackLen; k++ {
			u(uint64(c.acks[(c.ackHead+k)%ackQueueLen]))
		}
		b = append(b, c.results[:]...)
	}
	// The channel is a multiset: its frames enter in sorted order.
	var flat []byte
	for _, m := range w.channel {
		c := &w.clients[m.client]
		live := c.phase == phaseWaiting && c.xid == m.xid
		flat = append(flat, modelBit(m.reply), byte(m.client), modelBit(live), modelBit(m.intact), byte(len(m.bytes)))
		flat = append(flat, m.bytes...)
	}
	var msgs [][]byte
	for len(flat) > 0 {
		n := 5 + int(flat[4])
		msgs, flat = append(msgs, flat[:n]), flat[n:]
	}
	slices.SortFunc(msgs, bytes.Compare)
	for _, m := range msgs {
		b = append(b, m...)
	}
	acked := slices.Clone(w.acked)
	slices.Sort(acked)
	u(uint64(len(acked)))
	u(acked...)
	if w.cache != nil {
		s := &w.cache.shards[0]
		u(uint64(len(s.index)), uint64(s.head))
		for _, e := range s.ring {
			u(e.key, uint64(modelBit(e.acked)), uint64(len(e.frame)))
			b = append(b, e.frame...)
		}
	}
	return maphash.Bytes(modelSeed, b)
}

var modelSeed = maphash.MakeSeed()

func modelBit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// modelResult is what a search found.
type modelResult struct {
	states    int
	violation string
	schedule  []string
}

func (r modelResult) report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nschedule:\n", r.violation)
	for i, s := range r.schedule {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, s)
	}
	return b.String()
}

// explore searches cfg's scope depth first, merging states that hash
// alike, and replays the first violating schedule to describe it.
func explore(t testing.TB, cfg modelConfig) modelResult {
	m := newModelCodec(t)
	seen := map[uint64]bool{}
	var res modelResult
	var found []modelAction
	buf := make([]byte, 0, 1024)
	var visit func(w *modelWorld, sched []modelAction) bool
	visit = func(w *modelWorld, sched []modelAction) bool {
		for _, a := range w.enabled() {
			c := w.clone()
			c.apply(a)
			next := append(sched, a)
			if c.bad != "" {
				found = slices.Clone(next)
				return true
			}
			if h := c.hash(buf); !seen[h] {
				seen[h] = true
				res.states++
				if visit(c, next) {
					return true
				}
			}
		}
		return false
	}
	if visit(newModelWorld(&cfg, m), nil) {
		w := newModelWorld(&cfg, m)
		w.verbose = true
		for _, a := range found {
			w.apply(a)
		}
		res.violation, res.schedule = w.bad, w.steps
	}
	return res
}

// modelDeep reports whether FLEXRPC_MODEL=1 asks for the deeper scope.
func modelDeep() bool { return os.Getenv("FLEXRPC_MODEL") == "1" }

// TestSessionModel checks the protocol over every schedule of two
// clients with distinct ids, two calls each, in its scope.
func TestSessionModel(t *testing.T) {
	cfg := modelConfig{cids: [2]uint32{1, 2}, atMostOnce: true, cache: true, calls: 2, frames: 8, faults: 1}
	if modelDeep() {
		cfg.faults = 2
	}
	res := explore(t, cfg)
	if res.violation != "" {
		t.Fatal(shortestViolation(t, cfg).report())
	}
	t.Logf("%d states, %d frames, %d faults: no violation", res.states, cfg.frames, cfg.faults)
}

// shortestViolation searches cfg's scope with ever more frames, so the
// violation it returns comes with a schedule of the fewest frames.
func shortestViolation(t *testing.T, cfg modelConfig) modelResult {
	t.Helper()
	limit := cfg.frames
	for cfg.frames = 1; cfg.frames <= limit; cfg.frames++ {
		if res := explore(t, cfg); res.violation != "" {
			return res
		}
	}
	t.Fatalf("no violation within %d frames", limit)
	return modelResult{}
}

// TestSessionModelFindsItem13Bugs pins the two faults of caller-chosen
// session identity (ROADMAP item 13) as counterexamples the checker
// must find. Item 13's fix turns both into must-not-find cases.
func TestSessionModelFindsItem13Bugs(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  modelConfig
		want string
	}{
		{"two clients that leave ClientID at zero", modelConfig{cids: [2]uint32{0, 0}, atMostOnce: true, cache: true, calls: 2, frames: 8},
			"returned the reply of"},
		{"an AtMostOnce client against a server with no reply cache", modelConfig{cids: [2]uint32{1, 2}, atMostOnce: true, calls: 2, frames: 8},
			"executed again"},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := shortestViolation(t, c.cfg)
			if !strings.Contains(res.violation, c.want) {
				t.Fatalf("want a violation %q, found:\n%s", c.want, res.report())
			}
			t.Logf("ROADMAP item 13, %s:\n%s", c.name, res.report())
		})
	}
}
