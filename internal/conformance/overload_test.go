package conformance

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexrpc/internal/netsim"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
	"flexrpc/internal/transport/suntcp"
)

// The overload cells: admission control installed in front of the
// session layer, over the in-process loopback and the Sun RPC stream,
// the two transports sessions run over. The pushback protocol is a
// session-layer construct, so every transport must surface the identical
// taxonomy: *runtime.ErrOverloaded out of the retry loop, with the
// server's advisory RetryAfter intact, and errors.Is(err,
// runtime.ErrDraining) discriminating a drain from momentary load.

// overloadWorld is a world plus the admission-controlled session
// server shared by every overload cell builder.
type overloadWorld struct {
	*world
	adm   *runtime.Admission
	cache *runtime.ReplyCache
	sess  *runtime.SessionServer
}

func newOverloadWorld(t testing.TB, opts runtime.AdmissionOptions) *overloadWorld {
	t.Helper()
	w := newWorld(t)
	ow := &overloadWorld{
		world: w,
		adm:   runtime.NewAdmission(opts),
		cache: runtime.NewReplyCacheSharded(runtime.DefaultReplyCacheSize, 0),
	}
	ow.sess = runtime.NewSessionServer(w.disp, w.plan(t), ow.cache)
	ow.sess.SetAdmission(ow.adm)
	return ow
}

type overloadCell struct {
	name  string
	build func(t *testing.T, ow *overloadWorld) invoker
}

func overloadCells() []overloadCell {
	return []overloadCell{
		{
			name: "loopback/admission",
			build: func(t *testing.T, ow *overloadWorld) invoker {
				return newClient(t, ow.world, runtime.NewRobustConn(&sessLoop{sess: ow.sess}, ow.p, robustOpts()))
			},
		},
		{
			name: "suntcp/admission",
			build: func(t *testing.T, ow *overloadWorld) invoker {
				srv := suntcp.NewSessionServer(ow.sess, ow.p.Interface)
				cc, sc := netsim.BufferedPipe(netsim.LinkParams{}, 64)
				go func() { _ = srv.ServeConn(sc) }()
				t.Cleanup(func() { cc.Close(); sc.Close() })
				return newClient(t, ow.world, runtime.NewRobustConn(suntcp.Dial(cc, ow.p), ow.p, robustOpts()))
			},
		},
	}
}

// classifyOverload extends the matrix taxonomy with the pushback
// classes: "overload" for a shed call, "draining" for a drain.
func classifyOverload(err error) string {
	var ov *runtime.ErrOverloaded
	if errors.As(err, &ov) {
		if ov.Draining {
			return "draining"
		}
		return "overload"
	}
	return classify(err)
}

// TestOverloadPushbackTaxonomy saturates the admission controller
// (the capacity is consumed out-of-band, as concurrent peers would)
// and asserts every transport surfaces the identical wire-visible
// pushback: classified "overload", carrying the server's advisory
// RetryAfter, not matching ErrDraining. Releasing the capacity makes
// the same call succeed — the controller sheds, it does not wedge.
func TestOverloadPushbackTaxonomy(t *testing.T) {
	const retryAfter = 3 * time.Millisecond
	for _, tc := range overloadCells() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			srv := stats.New(nil) // the controller's shed counter
			ow := newOverloadWorld(t, runtime.AdmissionOptions{
				MaxInflight: 2, RetryAfter: retryAfter, Stats: srv,
			})
			inv := tc.build(t, ow)
			inv.EnableStats()

			// Fill the server: two foreign admissions hold the global cap.
			if ow.adm.Admit() != nil || ow.adm.Admit() != nil {
				t.Fatal("pre-fill admissions rejected")
			}
			_, _, err := inv.Invoke("add", []runtime.Value{int32(1), int32(2)}, nil, nil)
			if got := classifyOverload(err); got != "overload" {
				t.Fatalf("saturated call classified %q (%v), want overload", got, err)
			}
			var ov *runtime.ErrOverloaded
			if !errors.As(err, &ov) {
				t.Fatalf("saturated call error %T, want *runtime.ErrOverloaded", err)
			}
			if ov.RetryAfter != retryAfter {
				t.Fatalf("pushback RetryAfter = %v, want %v", ov.RetryAfter, retryAfter)
			}
			if errors.Is(err, runtime.ErrDraining) {
				t.Fatal("overload pushback matched ErrDraining")
			}
			if snap := inv.EnableStats().Snapshot(); snap.Pushbacks == 0 {
				t.Fatalf("client recorded no pushbacks: %+v", snap)
			}

			// Release the capacity: the same call now admits and runs.
			ow.adm.Release()
			ow.adm.Release()
			_, ret, err := inv.Invoke("add", []runtime.Value{int32(20), int32(22)}, nil, nil)
			if err != nil || ret.(int32) != 42 {
				t.Fatalf("post-release add = %v, %v", ret, err)
			}
			if sheds := srv.Snapshot().Sheds; sheds == 0 {
				t.Fatal("server endpoint recorded no sheds")
			}
		})
	}
}

// TestOverloadShedAndRetryAtMostOnce drives the non-idempotent
// exchange operation into a shed-then-retry: the first attempt is
// pushed back (capacity held elsewhere), the capacity frees while the
// client honors RetryAfter, and the retry executes. At-most-once
// must hold exactly as without admission control: one execution per
// successful call, because a pushed-back attempt never reached the
// dispatcher.
func TestOverloadShedAndRetryAtMostOnce(t *testing.T) {
	for _, tc := range overloadCells() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ow := newOverloadWorld(t, runtime.AdmissionOptions{
				MaxInflight: 1, RetryAfter: time.Millisecond,
			})
			inv := tc.build(t, ow)
			inv.EnableStats()

			const calls = 20
			for i := 0; i < calls; i++ {
				// Hold the only slot, free it shortly after the first
				// attempt has been pushed back.
				if ow.adm.Admit() != nil {
					t.Fatal("pre-fill admission rejected")
				}
				release := make(chan struct{})
				go func() {
					time.Sleep(500 * time.Microsecond)
					ow.adm.Release()
					close(release)
				}()
				data := []byte{1, 2, 3}
				outs, _, err := inv.Invoke("exchange", []runtime.Value{data, nil}, nil, nil)
				<-release
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if got := outs[1].(uint32); got != 6 {
					t.Fatalf("call %d: sum = %d, want 6", i, got)
				}
			}
			if n := ow.execs.Load(); n != calls {
				t.Fatalf("exchange executed %d times for %d successful calls", n, calls)
			}
			snap := inv.EnableStats().Snapshot()
			if snap.Pushbacks == 0 {
				t.Fatalf("shed-and-retry loop saw no pushbacks: %+v", snap)
			}
		})
	}
}

// TestOverloadDrainExactlyOnce races concurrent in-flight calls with
// Drain under -race: every call either completes normally (executing
// exactly once) or surfaces the draining taxonomy (executing zero
// times), the successful count matches the execution witness, drain
// flushes the reply cache, and concurrent Drains are safe.
func TestOverloadDrainExactlyOnce(t *testing.T) {
	for _, tc := range overloadCells() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ow := newOverloadWorld(t, runtime.AdmissionOptions{
				RetryAfter: time.Millisecond,
			})
			inv := tc.build(t, ow)
			inv.EnableStats()

			// Warm calls prove the path.
			for i := 0; i < 4; i++ {
				if _, _, err := inv.Invoke("exchange", []runtime.Value{[]byte{9}, nil}, nil, nil); err != nil {
					t.Fatalf("warm call %d: %v", i, err)
				}
			}
			const callers = 4
			var ok, drained atomic.Int64
			var wg sync.WaitGroup
			start := make(chan struct{})
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < 10; i++ {
						_, _, err := inv.Invoke("exchange", []runtime.Value{[]byte{1, 2}, nil}, nil, nil)
						switch classifyOverload(err) {
						case "ok":
							ok.Add(1)
						case "draining":
							drained.Add(1)
							return
						default:
							panic(err)
						}
					}
				}()
			}
			close(start)
			// Two drains race each other and the callers.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var dwg sync.WaitGroup
			for d := 0; d < 2; d++ {
				dwg.Add(1)
				go func() {
					defer dwg.Done()
					if err := ow.sess.Drain(ctx); err != nil {
						t.Errorf("drain: %v", err)
					}
				}()
			}
			wg.Wait()
			dwg.Wait()

			if ow.adm.Inflight() != 0 {
				t.Fatalf("drain returned with %d calls in flight", ow.adm.Inflight())
			}
			if n := ow.cache.Flush(); n != 0 {
				t.Fatalf("drain left %d cached replies", n)
			}
			// Exactly-once: executions = warm calls + successful raced
			// calls; drained calls never reached the dispatcher.
			want := int64(4) + ok.Load()
			if n := ow.execs.Load(); n != want {
				t.Fatalf("exchange executed %d times, want %d (ok=%d drained=%d)",
					n, want, ok.Load(), drained.Load())
			}
			// Post-drain, every transport surfaces the draining taxonomy.
			_, _, err := inv.Invoke("add", []runtime.Value{int32(1), int32(1)}, nil, nil)
			if got := classifyOverload(err); got != "draining" {
				t.Fatalf("post-drain call classified %q (%v), want draining", got, err)
			}
			if !errors.Is(err, runtime.ErrDraining) {
				t.Fatalf("post-drain error %v does not match ErrDraining", err)
			}
		})
	}
}
