package conformance

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexrpc/internal/core"
	"flexrpc/internal/fbuf"
	"flexrpc/internal/mach"
	"flexrpc/internal/netsim"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
	"flexrpc/internal/sunrpc"
	"flexrpc/internal/transport/faultconn"
	"flexrpc/internal/transport/fbufrpc"
	"flexrpc/internal/transport/inproc"
	"flexrpc/internal/transport/machipc"
	"flexrpc/internal/transport/shmring"
	"flexrpc/internal/transport/suntcp"
)

// The canonical contract: every parameter direction, octet
// sequences, a [special]-marshaled parameter, an [idempotent]
// operation, an always-failing operation and a blocking one for
// deadline behavior.
const confIDL = `
	interface Conf {
	    long add(in long a, in long b);
	    sequence<octet> concat(in sequence<octet> a, in sequence<octet> b);
	    void exchange(inout sequence<octet> data, out unsigned long sum);
	    sequence<octet> stamp(in sequence<octet> data);
	    long bump(in long n);
	    void fail(in string msg);
	    void hang();
	};`

const confPDL = `interface Conf {
    [idempotent] bump();
    stamp([special] data);
};`

// confHooks are the [special] marshal hooks for stamp.data. They are
// value-transparent — the wire bytes are exactly what the default
// marshal would produce — so the in-process cell (which never
// marshals and therefore never runs them) observes the same values
// as every message transport.
type confHooks struct{}

func (confHooks) EncodeSpecial(op, param string, enc runtime.Encoder, v runtime.Value) error {
	enc.PutBytes(v.([]byte))
	return nil
}

func (confHooks) DecodeSpecial(op, param string, dec runtime.Decoder) (runtime.Value, error) {
	b, err := dec.Bytes()
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// world is one compiled contract plus a live dispatcher; every cell
// gets a fresh one so execution counts are per-cell.
type world struct {
	p      *pres.Presentation // the server's
	client *pres.Presentation // the one cells bind clients with; p unless redeclared
	disp   *runtime.Dispatcher
	execs  atomic.Int64 // exchange handler executions (at-most-once witness)
}

func newWorld(t testing.TB) *world {
	t.Helper()
	compiled, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA, Filename: "conf.idl", Source: confIDL,
		PDL: confPDL, PDLFilename: "conf.pdl",
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &world{p: compiled.Pres, client: compiled.Pres, disp: runtime.NewDispatcher(compiled.Pres)}
	w.disp.SetHooks(confHooks{})
	w.disp.Handle("add", func(c *runtime.Call) error {
		c.SetResult(c.Arg(0).(int32) + c.Arg(1).(int32))
		return nil
	})
	w.disp.Handle("concat", func(c *runtime.Call) error {
		a, b := c.Arg(0).([]byte), c.Arg(1).([]byte)
		out := make([]byte, 0, len(a)+len(b))
		c.SetResult(append(append(out, a...), b...))
		return nil
	})
	w.disp.Handle("exchange", func(c *runtime.Call) error {
		w.execs.Add(1)
		in := c.Arg(0).([]byte)
		rev := make([]byte, len(in))
		var sum uint32
		for i, bb := range in {
			rev[len(in)-1-i] = bb
			sum += uint32(bb)
		}
		c.SetOut(0, rev)
		c.SetOut(1, sum)
		return nil
	})
	w.disp.Handle("stamp", func(c *runtime.Call) error {
		in := c.Arg(0).([]byte)
		out := make([]byte, len(in))
		for i, bb := range in {
			out[i] = bb ^ 0x5A
		}
		c.SetResult(out)
		return nil
	})
	w.disp.Handle("bump", func(c *runtime.Call) error {
		c.SetResult(c.Arg(0).(int32) + 1)
		return nil
	})
	w.disp.Handle("fail", func(c *runtime.Call) error {
		return errors.New(c.Arg(0).(string))
	})
	w.disp.Handle("hang", func(c *runtime.Call) error {
		// Cooperative when the transport forwards the caller's
		// context (inproc, shm inline), self-bounded when it cannot — so a
		// deadline cell never wedges a serve loop for good.
		select {
		case <-c.Context().Done():
			return c.Context().Err()
		case <-time.After(100 * time.Millisecond):
			return nil
		}
	})
	return w
}

func (w *world) plan(t testing.TB) *runtime.Plan {
	t.Helper()
	plan, err := w.disp.Plan(runtime.XDRCodec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func (w *world) session(t testing.TB) *runtime.SessionServer {
	t.Helper()
	return runtime.NewSessionServer(w.disp, w.plan(t), runtime.NewReplyCache(runtime.DefaultReplyCacheSize))
}

// invoker is the slice of client surface the matrix drives: both the
// marshal-based runtime.Client and the same-domain inproc.Conn
// satisfy it, including the shared observability interface.
type invoker interface {
	Invoke(op string, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error)
	InvokeContext(ctx context.Context, op string, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error)
	EnableStats() *stats.Endpoint
}

// loopConn is the minimal message transport: marshaled request in,
// marshaled reply out, one memcpy each way, no framing of its own.
type loopConn struct {
	mu   sync.Mutex
	disp *runtime.Dispatcher
	plan *runtime.Plan
	enc  runtime.Encoder
}

func (l *loopConn) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.enc.Reset()
	l.disp.ServeMessage(l.plan, opIdx, req, l.enc)
	return append(replyBuf[:0], l.enc.Bytes()...), nil
}

func (l *loopConn) Close() error { return nil }

// sessLoop carries at-most-once session frames straight into a
// SessionServer, copying each reply the way a real wire would.
type sessLoop struct {
	mu   sync.Mutex
	sess *runtime.SessionServer
}

func (l *sessLoop) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	frame := l.sess.Handle(context.Background(), opIdx, req)
	return append(replyBuf[:0], frame...), nil
}

func (l *sessLoop) Close() error { return nil }

func confPolicy() runtime.RetryPolicy {
	return runtime.RetryPolicy{
		MaxAttempts:    8,
		AttemptTimeout: 50 * time.Millisecond,
		BaseBackoff:    200 * time.Microsecond,
		MaxBackoff:     2 * time.Millisecond,
		Seed:           11,
	}
}

func robustOpts() runtime.RobustOptions {
	return runtime.RobustOptions{ClientID: 1, AtMostOnce: true, Policy: confPolicy()}
}

// faultProfile injects deterministic (seeded) message loss in both
// directions — recoverable faults the session layer must mask.
func faultProfile() faultconn.Profile {
	return faultconn.Profile{Seed: 42, DropRequest: 0.03, DropReply: 0.03}
}

func newClient(t testing.TB, w *world, conn runtime.Conn) invoker {
	t.Helper()
	client, err := runtime.NewClient(w.client, runtime.XDRCodec, conn, confHooks{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// connectShm binds the world's client to its dispatcher over a
// private shared-memory ring: inline when both sides are [trusted],
// through the doorbell otherwise.
func connectShm(t *testing.T, w *world) (invoker, error) {
	t.Helper()
	b, err := shmring.Connect(w.client, w.disp, runtime.XDRCodec, shmring.Options{Hooks: confHooks{}})
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { b.Close() })
	return b, nil
}

// machPair is a kernel with a server task owning a port announced
// under the world's presentation, and a client task to dial it from.
func machPair(t *testing.T, w *world) (srv, cli *mach.Task, port *mach.Port) {
	t.Helper()
	k := mach.NewKernel()
	srv, cli = k.NewTask("server"), k.NewTask("client")
	_, port = srv.AllocatePort()
	machipc.Announce(port, w.p)
	t.Cleanup(port.Destroy)
	return srv, cli, port
}

// machClient binds a client over conn, a Mach IPC binding to a
// machPair port. Its calls are tracked so that cleanup waits out any
// still in flight before the port is destroyed: the deadline test
// abandons a hang call that is blocked in the kernel when the test
// ends, and closing the port under its send is a data race.
func machClient(t *testing.T, w *world, conn runtime.Conn) invoker {
	t.Helper()
	sc := &settledConn{Conn: conn}
	t.Cleanup(sc.settle) // runs before machPair's port.Destroy
	return newClient(t, w, sc)
}

type settledConn struct {
	runtime.Conn
	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
}

func (c *settledConn) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, mach.ErrDeadPort
	}
	c.inflight.Add(1)
	c.mu.Unlock()
	defer c.inflight.Done()
	return c.Conn.Call(opIdx, req, replyBuf)
}

// settle refuses new calls and waits for those in flight to return.
func (c *settledConn) settle() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.inflight.Wait()
}

// A cell is one transport × session combination plus its documented
// place in the error taxonomy.
type cell struct {
	name string
	// direct marks the same-domain in-process cell: no marshal, no
	// wire bytes, and application errors keep their identity.
	direct bool
	// failClass is how a handler error surfaces: "app" (returned
	// as-is, direct call) or "remote" (a RemoteError from the wire).
	failClass string
	// failCarriesMsg is whether the handler's error text survives
	// the trip; Sun RPC's bare accept_stat (SYSTEM_ERR) drops it.
	failCarriesMsg bool
	// build binds a client to w's dispatcher; the error is the bind's.
	build func(t *testing.T, w *world) (invoker, error)
}

// bind builds tc's client, failing the test if the bind fails.
func (tc cell) bind(t *testing.T, w *world) invoker {
	t.Helper()
	inv, err := tc.build(t, w)
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

func cells() []cell {
	return []cell{
		{
			name: "inproc/plain", direct: true, failClass: "app", failCarriesMsg: true,
			build: func(t *testing.T, w *world) (invoker, error) {
				conn, err := inproc.Connect(w.client, w.disp)
				if err != nil {
					return nil, err
				}
				return conn, nil
			},
		},
		{
			name: "loopback/plain", failClass: "remote", failCarriesMsg: true,
			build: func(t *testing.T, w *world) (invoker, error) {
				return newClient(t, w, &loopConn{disp: w.disp, plan: w.plan(t), enc: runtime.XDRCodec.NewEncoder()}), nil
			},
		},
		{
			name: "loopback/robust", failClass: "remote", failCarriesMsg: true,
			build: func(t *testing.T, w *world) (invoker, error) {
				return newClient(t, w, runtime.NewRobustConn(&sessLoop{sess: w.session(t)}, w.client, robustOpts())), nil
			},
		},
		{
			name: "loopback/robust+fault", failClass: "remote", failCarriesMsg: true,
			build: func(t *testing.T, w *world) (invoker, error) {
				faulty := faultconn.New(faultProfile()).Wrap(&sessLoop{sess: w.session(t)})
				return newClient(t, w, runtime.NewRobustConn(faulty, w.client, robustOpts())), nil
			},
		},
		{
			name: "shm/inline", failClass: "app", failCarriesMsg: true,
			build: func(t *testing.T, w *world) (invoker, error) {
				// [trusted] on both sides.
				w.p.Trust, w.client.Trust = pres.TrustFull, pres.TrustFull
				return connectShm(t, w)
			},
		},
		{
			name: "shm/doorbell", failClass: "remote", failCarriesMsg: true,
			build: connectShm,
		},
		{
			name: "machipc/plain", failClass: "remote", failCarriesMsg: true,
			build: func(t *testing.T, w *world) (invoker, error) {
				srv, cli, port := machPair(t, w)
				go func() { _ = machipc.Serve(srv, port, w.disp, runtime.XDRCodec) }()
				conn, err := machipc.Dial(cli, cli.InsertRight(port), w.client)
				if err != nil {
					return nil, err
				}
				return machClient(t, w, conn), nil
			},
		},
		{
			name: "fbufrpc/plain", failClass: "remote", failCarriesMsg: true,
			build: func(t *testing.T, w *world) (invoker, error) {
				srv, cli, port := machPair(t, w)
				ch := fbufrpc.NewChannel(
					fbufrpc.Endpoint{Task: cli, Domain: fbuf.NewDomain("client")},
					fbufrpc.Endpoint{Task: srv, Domain: fbuf.NewDomain("server")},
					64<<10, 8)
				go func() { _ = fbufrpc.Serve(ch, port, w.disp, runtime.XDRCodec) }()
				conn, err := fbufrpc.Dial(ch, cli.InsertRight(port), w.client)
				if err != nil {
					return nil, err
				}
				return machClient(t, w, conn), nil
			},
		},
		{
			name: "suntcp/plain", failClass: "remote", failCarriesMsg: false,
			build: func(t *testing.T, w *world) (invoker, error) {
				srv, err := suntcp.NewServer(w.disp)
				if err != nil {
					return nil, err
				}
				cc, sc := netsim.BufferedPipe(netsim.LinkParams{}, 64)
				go func() { _ = srv.ServeConn(sc) }()
				t.Cleanup(func() { cc.Close(); sc.Close() })
				return newClient(t, w, suntcp.Dial(cc, w.client)), nil
			},
		},
		{
			name: "suntcp/robust", failClass: "remote", failCarriesMsg: true,
			build: func(t *testing.T, w *world) (invoker, error) {
				srv := suntcp.NewSessionServer(w.session(t), w.p.Interface)
				cc, sc := netsim.BufferedPipe(netsim.LinkParams{}, 64)
				go func() { _ = srv.ServeConn(sc) }()
				t.Cleanup(func() { cc.Close(); sc.Close() })
				return newClient(t, w, runtime.NewRobustConn(suntcp.Dial(cc, w.client), w.client, robustOpts())), nil
			},
		},
		{
			name: "suntcp/robust+fault", failClass: "remote", failCarriesMsg: true,
			build: func(t *testing.T, w *world) (invoker, error) {
				srv := suntcp.NewSessionServer(w.session(t), w.p.Interface)
				cc, sc := netsim.BufferedPipe(netsim.LinkParams{}, 64)
				go func() { _ = srv.ServeConn(sc) }()
				t.Cleanup(func() { cc.Close(); sc.Close() })
				faulty := faultconn.New(faultProfile()).Wrap(suntcp.Dial(cc, w.client))
				return newClient(t, w, runtime.NewRobustConn(faulty, w.client, robustOpts())), nil
			},
		},
	}
}

// classify maps a call error into the cross-transport taxonomy.
func classify(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	}
	var rerr *runtime.RemoteError
	var serr *sunrpc.RemoteError
	if errors.As(err, &rerr) || errors.As(err, &serr) {
		return "remote"
	}
	return "app"
}

func opStats(t *testing.T, snap *stats.Snapshot, name string) stats.OpSnapshot {
	t.Helper()
	for _, op := range snap.Ops {
		if op.Name == name {
			return op
		}
	}
	t.Fatalf("snapshot has no op %q", name)
	return stats.OpSnapshot{}
}

// TestMatrix runs the canonical call sequence through every cell.
func TestMatrix(t *testing.T) {
	for _, tc := range cells() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w := newWorld(t)
			runCanonical(t, tc, w, tc.bind(t, w))
		})
	}
}

// runCanonical runs the canonical call sequence through one bound cell
// and asserts identical results, the documented error taxonomy,
// exactly-once execution of the non-idempotent operation, and that the
// observability layer reports through the same interface everywhere.
func runCanonical(t *testing.T, tc cell, w *world, inv invoker) {
	inv.EnableStats().EnableTracing(256)

	// Two passes: under the fault cells the second pass runs
	// on a session with retry/replay history behind it.
	for pass := 0; pass < 2; pass++ {
		// in params, scalar result.
		_, ret, err := inv.Invoke("add", []runtime.Value{int32(20), int32(22)}, nil, nil)
		if err != nil || ret.(int32) != 42 {
			t.Fatalf("add = %v, %v", ret, err)
		}

		// in sequences, sequence result.
		_, ret, err = inv.Invoke("concat",
			[]runtime.Value{[]byte("conform"), []byte("ance")}, nil, nil)
		if err != nil || !bytes.Equal(ret.([]byte), []byte("conformance")) {
			t.Fatalf("concat = %q, %v", ret, err)
		}

		// Same call through the borrow path: a caller-provided
		// result buffer must not change the value seen.
		retBuf := make([]byte, 32)
		_, ret, err = inv.Invoke("concat",
			[]runtime.Value{[]byte("bor"), []byte("row")}, nil, retBuf)
		if err != nil || !bytes.Equal(ret.([]byte), []byte("borrow")) {
			t.Fatalf("concat into retBuf = %q, %v", ret, err)
		}

		// inout + out parameters.
		data := []byte{1, 2, 3, 250}
		outs, _, err := inv.Invoke("exchange", []runtime.Value{data, nil}, nil, nil)
		if err != nil {
			t.Fatalf("exchange: %v", err)
		}
		if !bytes.Equal(outs[0].([]byte), []byte{250, 3, 2, 1}) {
			t.Fatalf("exchange data = %v", outs[0])
		}
		if outs[1].(uint32) != 256 {
			t.Fatalf("exchange sum = %v", outs[1])
		}

		// [special]-marshaled parameter.
		_, ret, err = inv.Invoke("stamp", []runtime.Value{[]byte("Paper")}, nil, nil)
		if err != nil {
			t.Fatalf("stamp: %v", err)
		}
		want := []byte("Paper")
		for i := range want {
			want[i] ^= 0x5A
		}
		if !bytes.Equal(ret.([]byte), want) {
			t.Fatalf("stamp = %v, want %v", ret, want)
		}

		// [idempotent] operation.
		_, ret, err = inv.Invoke("bump", []runtime.Value{int32(7)}, nil, nil)
		if err != nil || ret.(int32) != 8 {
			t.Fatalf("bump = %v, %v", ret, err)
		}

		// Error taxonomy: a handler error surfaces with the
		// cell's documented class and fidelity.
		_, _, err = inv.Invoke("fail", []runtime.Value{"boom"}, nil, nil)
		if got := classify(err); got != tc.failClass {
			t.Fatalf("fail classified %q (%v), want %q", got, err, tc.failClass)
		}
		if carries := err != nil && strings.Contains(err.Error(), "boom"); carries != tc.failCarriesMsg {
			t.Fatalf("fail error %q: message fidelity = %v, want %v", err, carries, tc.failCarriesMsg)
		}
	}

	// At-most-once: the non-idempotent exchange handler ran
	// exactly once per client call, retries and replays
	// notwithstanding.
	if n := w.execs.Load(); n != 2 {
		t.Fatalf("exchange executed %d times for 2 calls", n)
	}

	// Every transport reports through the same stats surface.
	snap := inv.EnableStats().Snapshot()
	if add := opStats(t, snap, "add"); add.Calls != 2 || add.Errors != 0 || add.Latency.Count != 2 {
		t.Fatalf("add stats: %+v", add)
	}
	if fail := opStats(t, snap, "fail"); fail.Calls != 2 || fail.Errors != 2 {
		t.Fatalf("fail stats: %+v", fail)
	}
	if conc := opStats(t, snap, "concat"); !tc.direct && (conc.BytesOut == 0 || conc.BytesIn == 0) {
		t.Fatalf("concat moved no bytes: %+v", conc)
	}
	if len(snap.Trace) == 0 {
		t.Fatal("tracing enabled but no trace events recorded")
	}
}

// confRedeclared is Conf as a client might declare it: the operations
// in the reverse order and every parameter renamed. Parameter names
// and declaration order are not part of the contract.
const confRedeclared = `
	interface Conf {
	    void hang();
	    void fail(in string why);
	    long bump(in long k);
	    sequence<octet> stamp(in sequence<octet> payload);
	    void exchange(inout sequence<octet> buf, out unsigned long total);
	    sequence<octet> concat(in sequence<octet> head, in sequence<octet> tail);
	    long add(in long x, in long y);
	};`

const confRedeclaredPDL = `interface Conf {
    [idempotent] bump();
    stamp([special] payload);
};`

// TestMatrixDeclaredDifferently binds a client that declares Conf
// differently from the server. A bind that pairs the two
// presentations (pres.Combine) must give the canonical results; one
// whose wire numbers operations by declaration position must refuse
// the peer.
func TestMatrixDeclaredDifferently(t *testing.T) {
	for _, tc := range cells() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			transport := tc.name[:strings.Index(tc.name, "/")]
			if transport == "loopback" || transport == "suntcp" {
				t.Skip("no bind step checks the peer: ops are numbered by the client's declaration position (ROADMAP item 13)")
			}
			compiled, err := core.Compile(core.Options{
				Frontend: core.FrontendCORBA, Filename: "conf.idl", Source: confRedeclared,
				PDL: confRedeclaredPDL, PDLFilename: "conf.pdl",
			})
			if err != nil {
				t.Fatal(err)
			}
			w := newWorld(t)
			w.client = compiled.Pres
			inv, err := tc.build(t, w)
			if transport == "machipc" || transport == "fbufrpc" {
				if !errors.Is(err, mach.ErrContract) {
					t.Fatalf("bind error %v, want %v", err, mach.ErrContract)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			runCanonical(t, tc, w, inv)
		})
	}
}

// TestMatrixDeadline drives the blocking operation under a short
// per-call deadline in every cell: the call must come back promptly
// and classify as a deadline, and the stats layer must count it as a
// timeout, over every transport.
func TestMatrixDeadline(t *testing.T) {
	for _, tc := range cells() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w := newWorld(t)
			inv := tc.bind(t, w)
			inv.EnableStats()

			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, _, err := inv.InvokeContext(ctx, "hang", nil, nil, nil)
			if got := classify(err); got != "deadline" {
				t.Fatalf("hang classified %q (%v), want deadline", got, err)
			}
			if took := time.Since(start); took > 2*time.Second {
				t.Fatalf("deadline took %v to surface", took)
			}
			if hang := opStats(t, inv.EnableStats().Snapshot(), "hang"); hang.Timeouts != 1 || hang.Errors != 1 {
				t.Fatalf("hang stats: %+v", hang)
			}
		})
	}
}
