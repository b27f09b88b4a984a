package main

import (
	"context"
	"errors"
	"math"
	"net"
	"sort"
	"sync/atomic"
	"syscall"

	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
)

// Tracing from outside. The traced pass runs one caller at depth 1, so
// exactly one request is in flight: a process-wide "current request"
// is unambiguous, spans nest by time, and client and server share one
// clock. Timing shims sit at the public interfaces the layers already
// meet at — runtime.Invoker, runtime.Conn (above and below RobustConn),
// runtime.Handler, net.Conn and net.Listener — and stamp the current
// request's record. Nothing inside the program is instrumented.

// spanKind names the spans a shim can record.
type spanKind uint8

const (
	spInvoke      spanKind = iota // Invoker.Invoke, the whole call
	spConnUpper                   // Conn.Call above RobustConn
	spConnLower                   // Conn.Call below RobustConn (suntcp.Conn)
	spClientWrite                 // client net.Conn.Write, first start to last return
	spServerRead                  // mark: last server net.Conn.Read return
	spHandler                     // the work function
	spServerWrite                 // server net.Conn.Write
	spClientRead                  // mark: last client net.Conn.Read return
	numSpans
)

var spanNames = [numSpans]string{
	"invoke", "conn.upper", "conn.lower", "net.client.write",
	"net.server.read", "handler", "net.server.write", "net.client.read",
}

// spanParent is the static causal tree: who called whom. Spans whose
// parent was not recorded (no Conn on the same-domain paths) hang off
// the nearest recorded ancestor.
var spanParent = [numSpans]int{
	spInvoke: -1, spConnUpper: int(spInvoke), spConnLower: int(spConnUpper),
	spClientWrite: int(spConnLower), spServerRead: int(spConnLower), spHandler: int(spConnLower),
	spServerWrite: int(spConnLower), spClientRead: int(spConnLower),
}

// A span is one recorded interval: the form kept in memory for the
// sampled requests and written to out/trace-<workload>.json.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // ID of the causing span, -1 for the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const unset = math.MinInt64

// reqRec is the in-flight request's record. Shims on other goroutines
// (server reader, pool worker, client reply reader) stamp it, so every
// field is atomic. A span that occurs more than once per request
// (several Writes) keeps its first start and last end.
type reqRec struct {
	start [numSpans]atomic.Int64
	end   [numSpans]atomic.Int64
}

func (r *reqRec) reset() {
	for i := range r.start {
		r.start[i].Store(unset)
		r.end[i].Store(unset)
	}
}

// Stage names, in report order. Each is a gap or a child's duration in
// the span tree (see stagesOf); per call they sum to the invoke span.
type stageKind uint8

const (
	stClientEncode stageKind = iota
	stClientDecode
	stSessionClient
	stClientSend
	stClientWake
	stNetClientWrite
	stNetServerWrite
	stNetC2S
	stNetS2C
	stServerIngest
	stServerEgress
	stNetpollIngest
	stHandler
	stInprocSelf
	stShmSelf
	numStages
)

var stageNames = [numStages]string{
	"runtime.client.encode", "runtime.client.decode", "runtime.session.client",
	"suntcp.client.send", "sunrpc.client.wake",
	"net.client.write", "net.server.write", "net.c2s", "net.s2c",
	"sunrpc.server.ingest", "sunrpc.server.egress", "netpoll.ingest",
	"bench.handler", "inproc.self", "shmring.self",
}

// One request in traceSampleEvery keeps its spans for the trace file,
// until the file would hold traceSampleSpans of them.
const (
	traceSampleEvery = 64
	traceSampleSpans = 1 << 15
)

// stageCap bounds the stage vectors kept per op; a pass that would make
// more keeps every stride-th.
const stageCap = 1 << 17

// A stageVec is one request's stage vector, -1 where the path has no
// such stage, and its whole-call time.
type stageVec struct {
	st    [numStages]int32
	total int32
}

// A tracer collects the traced pass. begin and finish are called by
// the single caller; everything between them may be stamped from any
// goroutine.
type tracer struct {
	selfStage stageKind // which stage the invoke span's self time is, on a path with no Conn

	cur  atomic.Pointer[reqRec]
	ring [8]reqRec // a late stamp lands in its own request's record, not the next one's
	seq  uint64
	op   opKind

	// Count shims: totals over the pass.
	clientWrites, clientReads atomic.Uint64
	serverWrites, serverReads atomic.Uint64
	wireBytes                 atomic.Uint64

	calls      [numOps]uint64
	incomplete uint64
	total      hist               // invoke span, every op
	stride     uint64             // keep one stage vector in stride
	vecs       [numOps][]stageVec // only for the ops the report breaks down
	samples    []span
}

// stageOps are the ops whose stage vector is reported.
var stageOps = [...]opKind{opNop, opPut}

func newTracer(selfStage stageKind) *tracer {
	t := &tracer{selfStage: selfStage, stride: 1}
	t.reset()
	return t
}

// reset forgets everything collected so far (the warm-up's), keeping
// the tracer the shims point at.
func (t *tracer) reset() {
	for _, c := range []*atomic.Uint64{&t.clientWrites, &t.clientReads, &t.serverWrites, &t.serverReads, &t.wireBytes} {
		c.Store(0)
	}
	t.calls, t.incomplete, t.samples, t.total = [numOps]uint64{}, 0, nil, hist{}
	for _, k := range stageOps {
		t.vecs[k] = make([]stageVec, 0, stageCap)
	}
}

// begin opens the record for the caller's next request.
func (t *tracer) begin(k opKind) {
	t.seq++
	t.op = k
	r := &t.ring[t.seq%uint64(len(t.ring))]
	r.reset()
	t.cur.Store(r)
}

// finish closes the current request and keeps its stage vector.
func (t *tracer) finish() {
	r := t.cur.Swap(nil)
	var iv [numSpans]interval
	for i := range iv {
		iv[i] = interval{r.start[i].Load(), r.end[i].Load()}
	}
	t.calls[t.op]++
	st, total, ok := stagesOf(&iv, t.selfStage)
	if !ok {
		t.incomplete++
		return
	}
	t.total.record(total)
	if v := t.vecs[t.op]; v != nil && t.calls[t.op]%t.stride == 0 && len(v) < cap(v) {
		sv := stageVec{total: int32(total)}
		for s, x := range st {
			sv.st[s] = int32(x)
		}
		t.vecs[t.op] = append(v, sv)
	}
	if t.seq%traceSampleEvery == 0 && len(t.samples) < traceSampleSpans {
		t.samples = append(t.samples, spansOf(&iv, t.seq)...)
	}
}

// enter stamps the start of span k on the in-flight request and
// returns its record for the matching leave; nil between requests.
func (t *tracer) enter(k spanKind) *reqRec {
	r := t.cur.Load()
	if r != nil {
		r.start[k].CompareAndSwap(unset, now())
	}
	return r
}

func (t *tracer) leave(r *reqRec, k spanKind) {
	if r != nil {
		r.end[k].Store(now())
	}
}

// mark stamps a zero-length span at this instant, overwriting earlier
// marks: the last Read return is the one the next stage waited for.
func (t *tracer) mark(k spanKind) {
	if r := t.cur.Load(); r != nil {
		n := now()
		r.start[k].Store(n)
		r.end[k].Store(n)
	}
}

// An interval is one span's stamps; unset means not recorded.
type interval struct{ start, end int64 }

func (v interval) ok() bool { return v.start != unset }

// layout clips children, given in causal order, to their parent and to
// each other: a child starts no earlier than its parent, and ends no
// later than the next sibling starts — once the next stage is running,
// the rest of this one (a Write still returning while the peer already
// reads) is off the path that blocks the result. A child whose end was
// never stamped runs until its successor.
func layout(parent interval, kids []interval) {
	lo := parent.start
	for i := range kids {
		k := &kids[i]
		if k.start < lo {
			k.start = lo
		}
		if k.start > parent.end {
			k.start = parent.end
		}
		if k.end == unset || k.end > parent.end {
			k.end = parent.end
		}
		if k.end < k.start {
			k.end = k.start
		}
		if i > 0 && kids[i-1].end > k.start {
			kids[i-1].end = k.start
		}
		lo = k.start
	}
}

// gaps splits the parent's self time by position: lead before the
// first child, mid[i] between child i and i+1 (mid must hold
// len(kids)-1 values), tail after the last. kids must have been
// through layout.
func gaps(parent interval, kids []interval, mid []int64) (lead, tail int64) {
	if len(kids) == 0 {
		return parent.end - parent.start, 0
	}
	for i := 0; i+1 < len(kids); i++ {
		mid[i] = kids[i+1].start - kids[i].end
	}
	return kids[0].start - parent.start, parent.end - kids[len(kids)-1].end
}

// selfTime is a span's duration minus what its children cover.
func selfTime(parent interval, kids []interval) int64 {
	var mid [numSpans]int64
	lead, tail := gaps(parent, kids, mid[:])
	for _, m := range mid[:max(len(kids)-1, 0)] {
		lead += m
	}
	return lead + tail
}

// stagesOf turns one request's stamps into its stage vector. Stages
// that do not exist on this path are -1. ok is false when a span the
// path needs was not recorded.
func stagesOf(iv *[numSpans]interval, selfStage stageKind) (st [numStages]int64, total int64, ok bool) {
	for i := range st {
		st[i] = -1
	}
	root := iv[spInvoke]
	if !root.ok() || root.end == unset || !iv[spHandler].ok() {
		return st, 0, false
	}
	total = root.end - root.start

	if !iv[spConnUpper].ok() {
		// Same-domain paths: the handler is the invoke span's only child.
		kids := []interval{iv[spHandler]}
		layout(root, kids)
		st[selfStage] = selfTime(root, kids)
		st[stHandler] = kids[0].end - kids[0].start
		return st, total, true
	}
	if !iv[spConnLower].ok() || !iv[spClientWrite].ok() || !iv[spServerWrite].ok() || !iv[spClientRead].ok() {
		return st, 0, false
	}

	up := []interval{iv[spConnUpper]}
	layout(root, up)
	st[stClientEncode], st[stClientDecode] = gaps(root, up, nil)

	low := []interval{iv[spConnLower]}
	layout(up[0], low)
	st[stSessionClient] = selfTime(up[0], low)

	// Below suntcp.Conn the request crosses to the server and back.
	// The server's Read is visible only on the goroutine-reader path;
	// netpoll reads the descriptor with a raw syscall.
	kids := []interval{iv[spClientWrite]}
	sawRead := iv[spServerRead].ok()
	if sawRead {
		kids = append(kids, iv[spServerRead])
	}
	kids = append(kids, iv[spHandler], iv[spServerWrite], iv[spClientRead])
	layout(low[0], kids)
	var mid [numSpans]int64
	lead, tail := gaps(low[0], kids, mid[:])
	st[stClientSend] = lead
	st[stNetClientWrite] = kids[0].end - kids[0].start
	i := 0
	if sawRead {
		st[stNetC2S] = mid[0]
		st[stServerIngest] = mid[1]
		i = 2
	} else {
		st[stNetpollIngest] = mid[0]
		i = 1
	}
	h, w := kids[i], kids[i+1]
	st[stHandler] = h.end - h.start
	st[stServerEgress] = mid[i]
	st[stNetServerWrite] = w.end - w.start
	st[stNetS2C] = mid[i+1]
	st[stClientWake] = tail
	return st, total, true
}

// spansOf renders one request's stamps as spans with parent links, for
// the trace file. Unstamped ends are left as the start.
func spansOf(iv *[numSpans]interval, req uint64) []span {
	var out []span
	for k := spanKind(0); k < numSpans; k++ {
		v := iv[k]
		if !v.ok() {
			continue
		}
		if v.end == unset {
			v.end = v.start
		}
		p := spanParent[k]
		for p >= 0 && !iv[p].ok() {
			p = spanParent[p]
		}
		out = append(out, span{Name: spanNames[k], Req: req, ID: int(k), Parent: p, Start: v.start, End: v.end})
	}
	return out
}

// invokerShim times the whole call at the runtime.Invoker interface.
type invokerShim struct {
	inner runtime.Invoker
	tr    *tracer
}

func (s *invokerShim) Invoke(op string, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	r := s.tr.enter(spInvoke)
	outs, ret, err := s.inner.Invoke(op, args, outBufs, retBuf)
	s.tr.leave(r, spInvoke)
	return outs, ret, err
}

// handlerShim wraps a work function.
func (t *tracer) handlerShim(h runtime.Handler) runtime.Handler {
	return func(c *runtime.Call) error {
		r := t.enter(spHandler)
		err := h(c)
		t.leave(r, spHandler)
		return err
	}
}

// connShim times Call at the runtime.Conn interface. It forwards the
// optional interfaces the runtime probes for — SelfFraming, ContextConn
// and the stats hook — so the traced stack takes the same code path as
// the untraced one.
type connShim struct {
	inner runtime.Conn
	tr    *tracer
	kind  spanKind
}

func (s *connShim) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	r := s.tr.enter(s.kind)
	reply, err := s.inner.Call(opIdx, req, replyBuf)
	s.tr.leave(r, s.kind)
	return reply, err
}

func (s *connShim) CallContext(ctx context.Context, opIdx int, req, replyBuf []byte) ([]byte, error) {
	r := s.tr.enter(s.kind)
	reply, err := runtime.CallConn(ctx, s.inner, opIdx, req, replyBuf)
	s.tr.leave(r, s.kind)
	return reply, err
}

func (s *connShim) Close() error { return s.inner.Close() }

func (s *connShim) SelfFraming() bool {
	sf, ok := s.inner.(runtime.SelfFraming)
	return ok && sf.SelfFraming()
}

func (s *connShim) SetStats(e *stats.Endpoint) {
	if in, ok := s.inner.(interface{ SetStats(*stats.Endpoint) }); ok {
		in.SetStats(e)
	}
}

// netShim times and counts Read and Write on one side of a TCP
// connection. It forwards SyscallConn so sunrpc's netpoll mode can
// still register the descriptor (its raw syscall.Read then bypasses
// Read here, which is why netpoll.ingest is measured from the client's
// Write instead).
type netShim struct {
	net.Conn
	tr          *tracer
	write, read spanKind
}

func (s *netShim) Write(b []byte) (int, error) {
	r := s.tr.enter(s.write)
	n, err := s.Conn.Write(b)
	s.tr.leave(r, s.write)
	if s.write == spClientWrite {
		s.tr.clientWrites.Add(1)
	} else {
		s.tr.serverWrites.Add(1)
	}
	s.tr.wireBytes.Add(uint64(n))
	return n, err
}

func (s *netShim) Read(b []byte) (int, error) {
	n, err := s.Conn.Read(b)
	if n > 0 {
		s.tr.mark(s.read)
		if s.read == spClientRead {
			s.tr.clientReads.Add(1)
		} else {
			s.tr.serverReads.Add(1)
		}
	}
	return n, err
}

func (s *netShim) SyscallConn() (syscall.RawConn, error) {
	sc, ok := s.Conn.(syscall.Conn)
	if !ok {
		return nil, errors.New("bench: wrapped conn has no descriptor")
	}
	return sc.SyscallConn()
}

// listenerShim wraps every accepted connection in a server-side
// netShim.
type listenerShim struct {
	net.Listener
	tr *tracer
}

func (l *listenerShim) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &netShim{Conn: c, tr: l.tr, write: spServerWrite, read: spServerRead}, nil
}

// typicalStages reduces an op's stage vectors to the vector of its
// typical call: the mean, stage by stage, over the calls whose whole
// time lies between its 45th and 55th percentile (a wider band misses
// the median by 15% on a depth-1 TCP call, which is bimodal). Stage
// medians would not add up (each comes from a different call); inside
// one band of calls the stage means sum to the band's mean call
// exactly, and what separates that from the median call is returned as
// the residual. A stage the path does not have is -1.
func typicalStages(vecs []stageVec) (st [numStages]float64, medianTotal, residual float64) {
	for i := range st {
		st[i] = -1
	}
	if len(vecs) == 0 {
		return st, 0, 0
	}
	sort.Slice(vecs, func(i, j int) bool { return vecs[i].total < vecs[j].total })
	medianTotal = float64(vecs[len(vecs)/2].total)
	band := vecs[len(vecs)*9/20 : len(vecs)*11/20+1]
	sum := 0.0
	for s := range st {
		if band[0].st[s] < 0 {
			continue
		}
		var acc int64
		for i := range band {
			acc += int64(band[i].st[s])
		}
		st[s] = float64(acc) / float64(len(band))
		sum += st[s]
	}
	return st, medianTotal, medianTotal - sum
}
