package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"flexrpc/internal/core"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
	"flexrpc/internal/transport/inproc"
	"flexrpc/internal/transport/shmring"
	"flexrpc/internal/transport/suntcp"
)

//go:embed bench.idl
var idlSrc string

//go:embed client.pdl
var clientPDL string

//go:embed server.pdl
var serverPDL string

// The four operations of bench.idl, in interface order.
type opKind uint8

const (
	opNop opKind = iota
	opPut
	opFetch
	opGetattr
	numOps
)

var opNames = [numOps]string{"nop", "put", "fetch", "getattr"}

// A workload is one traffic mix over one path through the stack. All
// four are closed loops: a caller issues its next call when the
// previous one returned.
type workload struct {
	name    string
	why     string // one line, repeated in BENCHMARK.json
	path    string
	callers int         // caller goroutines, each with its own connection
	block   int         // calls per timed unit (see README: timer cost)
	mix     [numOps]int // percent of calls, by opKind
	payload int         // put and fetch size in bytes
	sockets bool        // the stack opens TCP connections (buildTCP)
	netpoll bool        // with sockets: sunrpc.Server.SetNetpoll
	// selfStage names the invoke span's self time on a path with no
	// Conn under it (the same-domain transports).
	selfStage stageKind
	build     func(w *workload, in *inputs, tr *tracer) (*stack, error)
}

var workloads = []*workload{
	{
		name: "samedomain",
		why:  "inproc.Connect only: call frames and bind-time signatures, so codec, session and socket changes must read no change",
		path: "inproc.Connect", callers: 1, block: 64,
		mix: [numOps]int{50, 25, 25, 0}, payload: 1 << 10,
		selfStage: stInprocSelf, build: buildInproc,
	},
	{
		name: "shm_inline",
		why:  "shmring full-trust inline dispatch: the marshal plan arena-encodes and borrow-decodes on one goroutine, no scheduler or socket",
		path: "shmring.Connect, [trusted] both sides, inline dispatch", callers: 1, block: 64,
		mix: [numOps]int{25, 25, 25, 25}, payload: 1 << 10,
		selfStage: stShmSelf, build: buildShm,
	},
	{
		name: "tcp_pool",
		why:  "every layer once: Client, RobustConn, suntcp, loopback TCP, sunrpc reader + shared pool, SessionServer, ReplyCache, Dispatcher",
		path: "runtime.Client > RobustConn{AtMostOnce} > suntcp > 127.0.0.1 TCP > sunrpc.Server SetConcurrency(2) > SessionServer + sharded ReplyCache > Dispatcher", callers: 2, block: 1,
		mix: [numOps]int{40, 20, 20, 20}, payload: 8 << 10, sockets: true,
		build: buildTCP,
	},
	{
		name: "tcp_netpoll",
		why:  "same stack and mix with SetNetpoll(true): the epoll ingest path against tcp_pool, a clean A/B for the server connection core",
		path: "as tcp_pool, sunrpc.Server SetNetpoll(true)", callers: 2, block: 1,
		mix: [numOps]int{40, 20, 20, 20}, payload: 8 << 10, sockets: true, netpoll: true,
		build: buildTCP,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// compilePres runs the stub compiler's first two stages for both
// endpoints: the IDL once per side, each with its own PDL.
func compilePres() (client, server *pres.Presentation, err error) {
	for _, side := range []struct {
		pdl, file string
		out       **pres.Presentation
	}{{clientPDL, "client.pdl", &client}, {serverPDL, "server.pdl", &server}} {
		c, err := core.Compile(core.Options{
			Frontend: core.FrontendCORBA, Filename: "bench.idl", Source: idlSrc,
			PDL: side.pdl, PDLFilename: side.file,
		})
		if err != nil {
			return nil, nil, err
		}
		*side.out = c.Pres
	}
	return client, server, nil
}

// inputs are everything a run feeds the program, all derived from the
// seed: the op schedule, the put payloads, the server's fetch blob and
// attribute table. The program under test never sees the seed.
type inputs struct {
	seed     int64
	payload  int
	sched    []call
	payloads [][]byte          // put bodies; callers work on private copies
	blob     []byte            // server storage fetch slices come out of
	attrs    [][]runtime.Value // getattr table, one attr struct per handle

	// Arguments boxed once, so the timed loop allocates nothing itself.
	fetchArgs   [][]runtime.Value
	fetchLens   []uint32
	getattrArgs [][]runtime.Value
}

// A call is one schedule entry: the op and which pre-built argument.
type call struct {
	kind opKind
	arg  uint16
}

const (
	schedLen   = 1 << 16 // power of two: callers wrap with a mask
	numPayload = 32
	numFetch   = 64
	numAttrs   = 256
)

func newInputs(seed int64, mix [numOps]int, payload int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, payload: payload}
	in.payloads = make([][]byte, numPayload)
	for i := range in.payloads {
		in.payloads[i] = make([]byte, payload)
		rng.Read(in.payloads[i])
	}
	in.blob = make([]byte, payload+numFetch*61)
	rng.Read(in.blob)
	// fetch lengths vary a little below the nominal size so successive
	// replies differ in length and content.
	for i := 0; i < numFetch; i++ {
		n := uint32(payload - rng.Intn(64))
		in.fetchLens = append(in.fetchLens, n)
		in.fetchArgs = append(in.fetchArgs, []runtime.Value{n})
	}
	for h := 0; h < numAttrs; h++ {
		name := make([]byte, 8+rng.Intn(24))
		for i := range name {
			name[i] = 'a' + byte(rng.Intn(26))
		}
		in.attrs = append(in.attrs, []runtime.Value{
			rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32(),
			rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64(),
			rng.Uint32(), rng.Uint32(),
			rng.Int63(), rng.Int63(), rng.Int63(),
			rng.Intn(2) == 1, rng.Float64(), string(name),
		})
		in.getattrArgs = append(in.getattrArgs, []runtime.Value{uint32(h)})
	}
	in.sched = schedule(rng, mix)
	return in
}

// schedule draws the op sequence for a mix: exactly mix[k] percent of
// the entries are op k (the rounding remainder goes to nop), in an
// order the seed shuffles. Exact shares keep one seed's run comparable
// with another's: a sampled mix moved the getattr share, and with it
// allocations per call, by half a percent from seed to seed.
func schedule(rng *rand.Rand, mix [numOps]int) []call {
	sched := make([]call, 0, schedLen)
	for k := numOps - 1; k > opNop; k-- {
		for i := 0; i < mix[k]*schedLen/100; i++ {
			c := call{kind: k}
			switch k {
			case opPut:
				c.arg = uint16(rng.Intn(numPayload))
			case opFetch:
				c.arg = uint16(rng.Intn(numFetch))
			case opGetattr:
				c.arg = uint16(rng.Intn(numAttrs))
			}
			sched = append(sched, c)
		}
	}
	sched = sched[:schedLen] // what is left is nop, the zero call
	rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
	return sched
}

// withMix is the same tables under another op sequence.
func (in *inputs) withMix(mix [numOps]int) *inputs {
	out := *in
	out.sched = schedule(rand.New(rand.NewSource(in.seed)), mix)
	return &out
}

// fetchWant is the slice of the blob the server must return for
// fetch(n). The offset is a function of n alone, so client and server
// agree without sharing anything but the seeded blob.
func (in *inputs) fetchWant(n uint32) []byte {
	off := int(n%numFetch) * 61
	return in.blob[off : off+int(n)]
}

// fold is the cheap payload fingerprint both sides sum over every put:
// length plus the first and last eight bytes.
func fold(b []byte) uint64 {
	if len(b) < 8 {
		return uint64(len(b))
	}
	return uint64(len(b)) + binary.LittleEndian.Uint64(b) + binary.LittleEndian.Uint64(b[len(b)-8:])
}

// app is the server's work functions plus what they count, compared
// with the callers' completions after a pass: a clean link must give
// exactly one execution per completed call.
type app struct {
	in     *inputs
	execs  [numOps]atomic.Uint64
	putSum atomic.Uint64
}

func (a *app) register(disp *runtime.Dispatcher, tr *tracer) {
	handlers := [numOps]runtime.Handler{
		opNop: func(c *runtime.Call) error {
			a.execs[opNop].Add(1)
			return nil
		},
		opPut: func(c *runtime.Call) error {
			data := c.ArgBytes(0)
			a.putSum.Add(fold(data))
			if c.ArgPrivate(0) && len(data) > 8 {
				data[8]++ // the server works in place when the presentation lets it
			}
			a.execs[opPut].Add(1)
			return nil
		},
		opFetch: func(c *runtime.Call) error {
			n, _ := c.Arg(0).(uint32)
			if int(n) > a.in.payload {
				return fmt.Errorf("fetch(%d): beyond %d", n, a.in.payload)
			}
			c.SetResult(a.in.fetchWant(n))
			a.execs[opFetch].Add(1)
			return nil
		},
		opGetattr: func(c *runtime.Call) error {
			h, _ := c.Arg(0).(uint32)
			if int(h) >= len(a.in.attrs) {
				return fmt.Errorf("getattr(%d): no such handle", h)
			}
			c.SetResult(a.in.attrs[h])
			a.execs[opGetattr].Add(1)
			return nil
		},
	}
	for k, h := range handlers {
		if tr != nil {
			h = tr.handlerShim(h)
		}
		disp.Handle(opNames[k], h)
	}
}

// A stack is one bound workload: an Invoker per caller, the server
// application behind them, and what the traced pass reads counters
// from (nil when the stack was built untraced, i.e. stats-off).
type stack struct {
	invokers []runtime.Invoker
	app      *app
	cache    *runtime.ReplyCache
	cstats   []*stats.Endpoint // client side, one per invoker
	sstats   *stats.Endpoint   // server side
	close    func() error
}

func buildInproc(w *workload, in *inputs, tr *tracer) (*stack, error) {
	cp, sp, err := compilePres()
	if err != nil {
		return nil, err
	}
	st := &stack{app: &app{in: in}, close: func() error { return nil }}
	disp := runtime.NewDispatcher(sp)
	st.app.register(disp, tr)
	conn, err := inproc.Connect(cp, disp)
	if err != nil {
		return nil, err
	}
	var inv runtime.Invoker = conn
	if tr != nil {
		// Stats stay off even when traced: this path has no copy or
		// alloc meter to read, and switching them on costs more than
		// the call (see stats.on_overhead_ns).
		inv = &invokerShim{inner: conn, tr: tr}
	}
	st.invokers = []runtime.Invoker{inv}
	return st, nil
}

func buildShm(w *workload, in *inputs, tr *tracer) (*stack, error) {
	cp, sp, err := compilePres()
	if err != nil {
		return nil, err
	}
	st := &stack{app: &app{in: in}}
	disp := runtime.NewDispatcher(sp)
	st.app.register(disp, tr)
	b, err := shmring.Connect(cp, disp, runtime.XDRCodec, shmring.Options{})
	if err != nil {
		return nil, err
	}
	if !b.InlineDispatch() {
		b.Close()
		return nil, errors.New("shmring did not bind the inline path; the PDLs must both say [trusted]")
	}
	st.close = b.Close
	var inv runtime.Invoker = b
	if tr != nil {
		st.cstats = []*stats.Endpoint{b.EnableStats()}
		st.sstats = disp.EnableStats()
		b.ServerPlan().SetStats(st.sstats)
		inv = &invokerShim{inner: b, tr: tr}
	}
	st.invokers = []runtime.Invoker{inv}
	return st, nil
}

// buildTCP binds the full remote stack over the host's loopback
// interface (not a link): one listener, one connection per caller.
func buildTCP(w *workload, in *inputs, tr *tracer) (*stack, error) {
	cp, sp, err := compilePres()
	if err != nil {
		return nil, err
	}
	st := &stack{app: &app{in: in}}
	disp := runtime.NewDispatcher(sp)
	st.app.register(disp, tr)
	plan, err := runtime.NewPlan(sp, runtime.XDRCodec, nil)
	if err != nil {
		return nil, err
	}
	st.cache = runtime.NewReplyCacheSharded(runtime.DefaultReplyCacheSize, 0)
	sess := runtime.NewSessionServer(disp, plan, st.cache)
	srv := suntcp.NewSessionServer(sess, sp.Interface)
	srv.SetConcurrency(2)
	srv.SetNetpoll(w.netpoll)
	if tr != nil {
		st.sstats = disp.EnableStats()
		plan.SetStats(st.sstats)
		st.cache.SetStats(st.sstats)
		srv.SetStats(st.sstats)
	}

	var ln net.Listener
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if tr != nil {
		ln = &listenerShim{Listener: ln, tr: tr}
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	var clients []*runtime.Client
	st.close = func() error {
		var first error
		for _, c := range clients {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil && first == nil {
			first = err
		}
		if err := <-served; err != nil && first == nil {
			first = err
		}
		return first
	}
	for i := 0; i < w.callers; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			st.close()
			return nil, err
		}
		if tr != nil {
			nc = &netShim{Conn: nc, tr: tr, write: spClientWrite, read: spClientRead}
		}
		wire := suntcp.Dial(nc, cp)
		var lower runtime.Conn = wire
		if tr != nil {
			lower = &connShim{inner: wire, tr: tr, kind: spConnLower}
		}
		robust := runtime.NewRobustConn(lower, cp, runtime.RobustOptions{ClientID: uint32(i + 1), AtMostOnce: true})
		var upper runtime.Conn = robust
		if tr != nil {
			upper = &connShim{inner: robust, tr: tr, kind: spConnUpper}
		}
		client, err := runtime.NewClient(cp, runtime.XDRCodec, upper, nil)
		if err != nil {
			nc.Close()
			st.close()
			return nil, err
		}
		clients = append(clients, client)
		var inv runtime.Invoker = client
		if tr != nil {
			// Client.SetStats reaches RobustConn through the upper shim;
			// the wire meter below it is pointed at the same endpoint.
			e := client.EnableStats()
			wire.SetStats(e)
			st.cstats = append(st.cstats, e)
			inv = &invokerShim{inner: client, tr: tr}
		}
		st.invokers = append(st.invokers, inv)
	}
	return st, nil
}

// A caller drives one Invoker through the schedule and checks every
// reply in the timed path, cheaply.
type caller struct {
	inv      runtime.Invoker
	in       *inputs
	tr       *tracer // non-nil on the traced pass
	putArgs  [][]runtime.Value
	retBuf   []byte
	done     [numOps]uint64
	failed   uint64
	putSum   uint64
	fetches  uint64
	firstErr error
}

func newCaller(inv runtime.Invoker, in *inputs, tr *tracer) *caller {
	return &caller{inv: inv, in: in, tr: tr, retBuf: make([]byte, in.payload),
		putArgs: make([][]runtime.Value, len(in.payloads))}
}

func (c *caller) fail(k opKind, err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf("%s: %w", opNames[k], err)
	}
}

var (
	errFetchLen     = errors.New("fetch: wrong length")
	errFetchEnds    = errors.New("fetch: first or last 8 bytes differ")
	errFetchBody    = errors.New("fetch: body differs")
	errGetattrType  = errors.New("getattr: result is not a 16-field struct")
	errGetattrField = errors.New("getattr: field differs from the seeded table")
)

// do issues one scheduled call and verifies its reply.
func (c *caller) do(s call) {
	var (
		args   []runtime.Value
		retBuf []byte
	)
	switch s.kind {
	case opPut:
		// A private copy, made on first use: a same-domain server
		// modifies a [trashable] buffer in place, and two callers must
		// not share one.
		if c.putArgs[s.arg] == nil {
			c.putArgs[s.arg] = []runtime.Value{append([]byte(nil), c.in.payloads[s.arg]...)}
		}
		args = c.putArgs[s.arg]
		c.putSum += fold(args[0].([]byte))
	case opFetch:
		args = c.in.fetchArgs[s.arg]
		retBuf = c.retBuf
	case opGetattr:
		args = c.in.getattrArgs[s.arg]
	}
	if c.tr != nil {
		c.tr.begin(s.kind)
	}
	_, ret, err := c.inv.Invoke(opNames[s.kind], args, nil, retBuf)
	if c.tr != nil {
		c.tr.finish()
	}
	if err != nil {
		c.fail(s.kind, err)
		return
	}
	switch s.kind {
	case opFetch:
		if err := c.checkFetch(ret, c.in.fetchLens[s.arg]); err != nil {
			c.fail(s.kind, err)
			return
		}
	case opGetattr:
		if err := checkAttr(ret, c.in.attrs[s.arg]); err != nil {
			c.fail(s.kind, err)
			return
		}
	}
	c.done[s.kind]++
}

// checkFetch compares length and both ends of every reply, and the
// whole body of every 1024th.
func (c *caller) checkFetch(ret runtime.Value, n uint32) error {
	got, _ := ret.([]byte)
	want := c.in.fetchWant(n)
	if len(got) != len(want) {
		return errFetchLen
	}
	if len(got) >= 8 && (binary.LittleEndian.Uint64(got) != binary.LittleEndian.Uint64(want) ||
		binary.LittleEndian.Uint64(got[len(got)-8:]) != binary.LittleEndian.Uint64(want[len(want)-8:])) {
		return errFetchEnds
	}
	c.fetches++
	if c.fetches&1023 == 0 && !bytes.Equal(got, want) {
		return errFetchBody
	}
	return nil
}

func checkAttr(ret runtime.Value, want []runtime.Value) error {
	got, _ := ret.([]runtime.Value)
	if len(got) != len(want) {
		return errGetattrType
	}
	for i := range want {
		if got[i] != want[i] {
			return errGetattrField
		}
	}
	return nil
}

// windowDur is the slice a pass is cut into. Short on purpose: the
// host steals the CPU in bursts of milliseconds and slows it for
// seconds at a time, and only a short window has a fair chance of
// being clean (see best).
const windowDur = 50 * time.Millisecond

// passResult is what one caller measured over one pass: per window, the
// calls that ended in it and the median latency of a timed unit; over
// the whole pass, every timed unit. The first caller also reads the
// process's CPU time at each window boundary it crosses: cpu[w] is the
// reading at the start of window w.
type passResult struct {
	calls []uint64
	p50   []float64 // nanoseconds per timed unit; 0 for an empty window
	all   hist
	cpu   []float64
}

func newPassResult(windows int, sampleCPU bool) *passResult {
	r := &passResult{calls: make([]uint64, windows), p50: make([]float64, windows)}
	if sampleCPU {
		r.cpu = make([]float64, windows+1)
	}
	return r
}

// run drives the caller from the schedule position pos, from start
// until every window of res has passed. A timed unit is block
// consecutive calls; a unit counts in the window it ended in.
func (c *caller) run(pos, block int, start int64, res *passResult) {
	sched := c.in.sched
	var win hist // the current window's units
	cur := 0
	for {
		t0 := now()
		for i := 0; i < block; i++ {
			c.do(sched[pos&(schedLen-1)])
			pos++
		}
		t1 := now()
		if w := int((t1 - start) / int64(windowDur)); w > cur {
			// Close the window: keep its median, fold it into the
			// pass's histogram, and start the next one empty.
			res.p50[cur] = win.quantile(0.5)
			res.all.merge(&win)
			win = hist{}
			var us float64
			if res.cpu != nil {
				us = cpuUs()
			}
			for cur < w && cur < len(res.calls) {
				cur++
				if res.cpu != nil {
					res.cpu[cur] = us
				}
			}
			if w >= len(res.calls) {
				return
			}
		}
		res.calls[cur] += uint64(block)
		win.record(t1 - t0)
	}
}

// selfUsage is getrusage for this process.
func selfUsage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return ru
}

// cpuUs is the process's user plus system CPU time in microseconds.
func cpuUs() float64 {
	ru := selfUsage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

var epoch = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since start-up.
func now() int64 { return int64(time.Since(epoch)) }
