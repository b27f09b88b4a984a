package conformance

import (
	"bytes"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"flexrpc/internal/netpoll"
	"flexrpc/internal/netsim"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
	"flexrpc/internal/transport/faultconn"
	"flexrpc/internal/transport/suntcp"
)

// socketpairConns builds a connected pair of real-descriptor stream
// sockets, so the server half is eligible for netpoll registration
// (netsim pipes expose no descriptor and would silently fall back).
func socketpairConns(t *testing.T) (client, server net.Conn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatalf("socketpair: %v", err)
	}
	mk := func(fd int, name string) net.Conn {
		f := os.NewFile(uintptr(fd), name)
		defer f.Close() // net.FileConn dups the descriptor
		c, err := net.FileConn(f)
		if err != nil {
			t.Fatalf("FileConn: %v", err)
		}
		return c
	}
	return mk(fds[0], "sp-client"), mk(fds[1], "sp-server")
}

// TestMatrixManyConns is the connection-scaling conformance cell: 512
// concurrent connections, each with its own client, robust session and
// deterministic fault injector, all terminating in ONE server. The
// same workload runs against the serial (n=1) path and the shared
// worker-pool (n=8) path, and the invariants must be identical in
// both: every reply reaches its own connection un-cross-wired, the
// error taxonomy is unchanged, and the non-idempotent handler executes
// exactly once per successful call — retransmits hit the reply cache,
// never the handler — no matter which execution engine served them.
func TestMatrixManyConns(t *testing.T) {
	const conns = 512
	const callsPer = 4

	run := func(t *testing.T, concurrency int, useNetpoll bool) {
		w := newWorld(t)
		// The cache must retain every reply for the run's duration: 512
		// clients x 9 calls each is ~4.6k distinct (cid,seq) keys, and
		// an evicted entry would let a late retransmit re-execute.
		sess := runtime.NewSessionServer(w.disp, w.plan(t),
			runtime.NewReplyCacheSharded(16*conns, 16))
		srv := suntcp.NewSessionServer(sess, w.p.Interface)
		srv.SetConcurrency(concurrency)
		e := stats.New(nil)
		srv.SetStats(e)
		if useNetpoll {
			srv.SetNetpoll(true)
		}

		var exchanges atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < conns; i++ {
			var cc, sc net.Conn
			if useNetpoll {
				cc, sc = socketpairConns(t)
			} else {
				cc, sc = netsim.BufferedPipe(netsim.LinkParams{}, 16)
			}
			go func() { _ = srv.ServeConn(sc) }()
			t.Cleanup(func() { cc.Close(); sc.Close() })

			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Per-connection session identity: at-most-once replay
				// state must be tracked per client, not globally.
				opts := robustOpts()
				opts.ClientID = uint32(i + 1)
				// 512 simultaneous clients under the race detector on a
				// small box inflate per-call latency well past the
				// default 50ms attempt budget — the netpoll mode worst
				// of all, since its readiness loop multiplexes every
				// conn over GOMAXPROCS pollers. The cell
				// checks correctness invariants, not latency — widen
				// the attempt window so retries measure faults, not
				// scheduler pressure.
				opts.Policy.AttemptTimeout = 500 * time.Millisecond
				opts.Policy.MaxBackoff = 5 * time.Millisecond
				faulty := faultconn.New(faultProfile()).Wrap(suntcp.Dial(cc, w.p))
				conn := runtime.NewRobustConn(faulty, w.p, opts)
				defer conn.Close()
				client, err := runtime.NewClient(w.p, runtime.XDRCodec, conn, confHooks{})
				if err != nil {
					t.Error(err)
					return
				}
				defer client.Close()

				for j := 0; j < callsPer; j++ {
					// Non-idempotent inout/out call with per-connection
					// payload: catches cross-wired replies AND feeds the
					// at-most-once witness.
					data := []byte{byte(i), byte(i >> 8), byte(j), 250}
					outs, _, err := client.Invoke("exchange", []runtime.Value{data, nil}, nil, nil)
					if err != nil {
						t.Errorf("conn %d exchange %d: %v", i, j, err)
						return
					}
					if want := []byte{250, byte(j), byte(i >> 8), byte(i)}; !bytes.Equal(outs[0].([]byte), want) {
						t.Errorf("conn %d exchange %d: got %v, want %v (cross-wired reply)", i, j, outs[0], want)
						return
					}
					if want := uint32(250) + uint32(byte(i)) + uint32(i>>8) + uint32(j); outs[1].(uint32) != want {
						t.Errorf("conn %d exchange %d: sum %v, want %d", i, j, outs[1], want)
						return
					}
					exchanges.Add(1)

					// Result identity for a plain scalar op.
					if _, ret, err := client.Invoke("add", []runtime.Value{int32(i), int32(j)}, nil, nil); err != nil || ret.(int32) != int32(i+j) {
						t.Errorf("conn %d add %d = %v, %v", i, j, ret, err)
						return
					}
				}

				// Error taxonomy at scale: a handler error is still a
				// RemoteError, nothing else.
				if _, _, err := client.Invoke("fail", []runtime.Value{"boom"}, nil, nil); classify(err) != "remote" {
					t.Errorf("conn %d fail classified %q (%v), want remote", i, classify(err), err)
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		// At-most-once, independent of the execution engine: the
		// deterministic fault profile forced retransmits on many of
		// these connections, and every one of them must have been
		// answered from the reply cache.
		if got, want := w.execs.Load(), exchanges.Load(); got != want {
			t.Fatalf("exchange executed %d times for %d successful calls", got, want)
		}
		if exchanges.Load() != conns*callsPer {
			t.Fatalf("only %d/%d exchanges succeeded", exchanges.Load(), conns*callsPer)
		}

		// On platforms with a poller, every socketpair connection must
		// have been served by the event-driven path, not the fallback.
		if useNetpoll && netpoll.Supported() {
			if got := e.Snapshot().PollerConnsRegistered; got != conns {
				t.Fatalf("netpoll registered %d conns, want %d (fallback leak)", got, conns)
			}
		}
	}

	t.Run("serial", func(t *testing.T) { run(t, 1, false) })
	t.Run("shared-pool", func(t *testing.T) { run(t, 8, false) })
	// Same invariants when the readiness loop replaces per-conn reader
	// goroutines: replies stay un-cross-wired, at-most-once holds, and
	// the error taxonomy is unchanged.
	t.Run("netpoll", func(t *testing.T) { run(t, 8, true) })
}
