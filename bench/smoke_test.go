package main

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net"
	"os"
	"reflect"
	"sort"
	"syscall"
	"testing"
	"time"

	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
)

// Every workload, briefly, with verification on: untraced at its own
// concurrency, then traced at depth 1.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in := newInputs(defaultSeed, w.mix, w.payload)
			if _, err := setupOnce(w, in); err != nil {
				t.Fatalf("set-up cycle: %v", err)
			}
			st, err := w.build(w, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			p := runPass(st, in, w.block, w.callers, 200*time.Millisecond, nil)
			if err := st.close(); err != nil {
				t.Errorf("close: %v", err)
			}
			if p.failed != 0 || p.calls == 0 {
				t.Fatalf("untraced: %d calls, %d failed: %v", p.calls, p.failed, p.err)
			}

			tr := newTracer(w.selfStage)
			st, err = w.build(w, in, tr)
			if err != nil {
				t.Fatal(err)
			}
			p = runPass(st, in, 1, 1, 100*time.Millisecond, tr)
			if err := st.close(); err != nil {
				t.Errorf("close: %v", err)
			}
			if p.failed != 0 || p.calls == 0 {
				t.Fatalf("traced: %d calls, %d failed: %v", p.calls, p.failed, p.err)
			}
			if tr.incomplete*100 > p.calls {
				t.Errorf("%d of %d traced calls missed a span", tr.incomplete, p.calls)
			}
			stages, total, residual := typicalStages(tr.vecs[opNop])
			if total <= 0 || stages[stHandler] < 0 {
				t.Fatalf("no stage vector for nop: total %v, stages %v", total, stages)
			}
			if math.Abs(residual) > 0.2*total {
				t.Errorf("nop stages leave %v of a %v ns call", residual, total)
			}
			if len(tr.samples) == 0 {
				t.Error("no spans sampled for the trace file")
			}
		})
	}
}

// A quantile read from the histogram is within 1% of the sample's own.
func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	var exact []float64
	for i := 0; i < 200000; i++ {
		v := int64(math.Exp(rng.Float64()*20) + 50) // 50 ns .. ~8 min, log-uniform
		h.record(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))]
		if got := h.quantile(q); math.Abs(got-want) > 0.01*want {
			t.Errorf("q%v = %v, sample has %v (%.2f%% off)", q, got, want, (got-want)/want*100)
		}
	}
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<39 + 12345} {
		if got := histValue(histIndex(v)); math.Abs(got-float64(v)) > 0.01*float64(v) {
			t.Errorf("value %d reads back as %v", v, got)
		}
	}
	if got := h.mean(); math.Abs(got-mean(exact)) > 1e-6*got {
		t.Errorf("mean %v, sample has %v", got, mean(exact))
	}
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Self time is duration minus what the children cover, after clipping.
func TestSpanSelfTime(t *testing.T) {
	parent := interval{0, 100}
	kids := []interval{{10, 30}, {40, 60}}
	layout(parent, kids)
	var mid [1]int64
	lead, tail := gaps(parent, kids, mid[:])
	if lead != 10 || mid[0] != 10 || tail != 40 || selfTime(parent, kids) != 60 {
		t.Errorf("disjoint children: lead %d mid %d tail %d self %d", lead, mid[0], tail, selfTime(parent, kids))
	}

	// A child still running when its successor starts is cut there; one
	// that was never closed runs to its successor; one that starts
	// before the parent is pulled in.
	kids = []interval{{-5, 50}, {40, unset}, {70, 200}}
	layout(parent, kids)
	want := []interval{{0, 40}, {40, 70}, {70, 100}}
	if !reflect.DeepEqual(kids, want) {
		t.Errorf("clipped children = %v, want %v", kids, want)
	}
	if got := selfTime(parent, kids); got != 0 {
		t.Errorf("fully covered parent has self time %d", got)
	}

	// A whole remote request: the stages partition the invoke span.
	var iv [numSpans]interval
	for i := range iv {
		iv[i] = interval{unset, unset}
	}
	iv[spInvoke] = interval{1000, 21000}
	iv[spConnUpper] = interval{1300, 20600}
	iv[spConnLower] = interval{1700, 20100}
	iv[spClientWrite] = interval{2100, 5200} // returns after the server already read
	iv[spServerRead] = interval{5000, 5000}
	iv[spHandler] = interval{7000, 7100}
	iv[spServerWrite] = interval{7800, unset} // still in the kernel when the client read
	iv[spClientRead] = interval{18000, 18000}
	st, total, ok := stagesOf(&iv, stInprocSelf)
	if !ok || total != 20000 {
		t.Fatalf("stagesOf: ok %v total %d", ok, total)
	}
	wantStages := map[stageKind]int64{
		stClientEncode: 300, stClientDecode: 400, stSessionClient: 400 + 500,
		stClientSend: 400, stNetClientWrite: 2900, stNetC2S: 0, stServerIngest: 2000,
		stHandler: 100, stServerEgress: 700, stNetServerWrite: 10200, stNetS2C: 0, stClientWake: 2100,
	}
	var sum int64
	for s, v := range st {
		if w, has := wantStages[stageKind(s)]; has {
			if v != w {
				t.Errorf("%s = %d, want %d", stageNames[s], v, w)
			}
			sum += v
		} else if v != -1 {
			t.Errorf("%s = %d on a path that has no such stage", stageNames[s], v)
		}
	}
	if sum != total {
		t.Errorf("stages sum to %d of a %d ns call", sum, total)
	}

	// Netpoll hides the server's Read: ingest runs from the client's Write.
	iv[spServerRead] = interval{unset, unset}
	st, _, ok = stagesOf(&iv, stInprocSelf)
	if !ok || st[stNetpollIngest] != 7000-5200 || st[stNetC2S] != -1 || st[stServerIngest] != -1 {
		t.Errorf("netpoll path: ok %v ingest %d c2s %d server.ingest %d", ok, st[stNetpollIngest], st[stNetC2S], st[stServerIngest])
	}

	// Same-domain: the handler is the invoke span's only child.
	iv[spConnUpper], iv[spConnLower] = interval{unset, unset}, interval{unset, unset}
	st, total, ok = stagesOf(&iv, stShmSelf)
	if !ok || st[stShmSelf] != total-100 || st[stHandler] != 100 {
		t.Errorf("same-domain path: ok %v self %d handler %d of %d", ok, st[stShmSelf], st[stHandler], total)
	}

	spans := spansOf(&iv, 9)
	for _, s := range spans {
		if s.Name == "handler" && s.Parent != int(spInvoke) {
			t.Errorf("handler span hangs off %d, want the invoke span", s.Parent)
		}
	}

	// The typical call's stages sum to its band's mean, near the median.
	var vecs []stageVec
	for i := 0; i < 1000; i++ {
		v := stageVec{total: int32(1000 + i)}
		for s := range v.st {
			v.st[s] = -1
		}
		v.st[stHandler], v.st[stInprocSelf] = 100, int32(900+i)
		vecs = append(vecs, v)
	}
	typ, med, residual := typicalStages(vecs)
	if typ[stHandler] != 100 || typ[stClientEncode] != -1 || med != 1500 || math.Abs(residual) > 1 {
		t.Errorf("typical stages: handler %v encode %v median %v residual %v", typ[stHandler], typ[stClientEncode], med, residual)
	}
}

// The same seed gives the same inputs; another seed, others.
func TestSameSeedSameInputs(t *testing.T) {
	mix := [numOps]int{40, 20, 20, 20}
	a, b, c := newInputs(5, mix, 1024), newInputs(5, mix, 1024), newInputs(6, mix, 1024)
	if !reflect.DeepEqual(a.sched, b.sched) || !reflect.DeepEqual(a.payloads, b.payloads) ||
		!bytes.Equal(a.blob, b.blob) || !reflect.DeepEqual(a.attrs, b.attrs) || !reflect.DeepEqual(a.fetchLens, b.fetchLens) {
		t.Error("two builds from one seed differ")
	}
	if reflect.DeepEqual(a.sched, c.sched) || bytes.Equal(a.blob, c.blob) {
		t.Error("a different seed gave the same inputs")
	}
	var n [numOps]int
	for _, s := range a.sched {
		n[s.kind]++
	}
	for k, pct := range mix {
		if got := float64(n[k]) / schedLen * 100; math.Abs(got-float64(pct)) > 1 {
			t.Errorf("%s is %.1f%% of the schedule, want %d%%", opNames[k], got, pct)
		}
	}
	only := a.withMix([numOps]int{0, 0, 100, 0})
	for _, s := range only.sched {
		if s.kind != opFetch {
			t.Fatalf("single-op schedule holds a %s", opNames[s.kind])
		}
	}
	if &only.blob[0] != &a.blob[0] {
		t.Error("withMix copied the tables")
	}
}

type fakeConn struct {
	selfFraming bool
	sawCtx      context.Context
	stats       *stats.Endpoint
}

func (f *fakeConn) Call(int, []byte, []byte) ([]byte, error) { return nil, nil }
func (f *fakeConn) CallContext(ctx context.Context, _ int, _, _ []byte) ([]byte, error) {
	f.sawCtx = ctx
	return nil, nil
}
func (f *fakeConn) Close() error               { return nil }
func (f *fakeConn) SelfFraming() bool          { return f.selfFraming }
func (f *fakeConn) SetStats(e *stats.Endpoint) { f.stats = e }

type plainConn struct{}

func (plainConn) Call(int, []byte, []byte) ([]byte, error) { return nil, nil }
func (plainConn) Close() error                             { return nil }

// The shims answer the runtime's optional-interface probes the way the
// conn under them would, so the traced stack takes the untraced path.
func TestShimsForward(t *testing.T) {
	tr := newTracer(stInprocSelf)
	for _, sf := range []bool{true, false} {
		inner := &fakeConn{selfFraming: sf}
		var c runtime.Conn = &connShim{inner: inner, tr: tr, kind: spConnLower}
		if got := c.(runtime.SelfFraming).SelfFraming(); got != sf {
			t.Errorf("SelfFraming over a conn that says %v reads %v", sf, got)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if _, err := runtime.CallConn(ctx, c, 0, nil, nil); err != nil {
			t.Fatal(err)
		}
		cancel()
		if inner.sawCtx != ctx {
			t.Error("CallContext did not reach the wrapped conn with the caller's context")
		}
		e := stats.New(nil)
		c.(interface{ SetStats(*stats.Endpoint) }).SetStats(e)
		if inner.stats != e {
			t.Error("SetStats did not reach the wrapped conn")
		}
	}
	if (&connShim{inner: plainConn{}, tr: tr}).SelfFraming() {
		t.Error("a conn without SelfFraming reads as self-framing through the shim")
	}

	// The TCP shim must still hand sunrpc's netpoll mode a descriptor.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var shim net.Conn = &netShim{Conn: nc, tr: tr, write: spServerWrite, read: spServerRead}
	sc, ok := shim.(syscall.Conn)
	if !ok {
		t.Fatal("netShim is not a syscall.Conn")
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	fd := -1
	if err := raw.Control(func(u uintptr) { fd = int(u) }); err != nil || fd < 0 {
		t.Errorf("no descriptor through the shim: fd %d, err %v", fd, err)
	}
}

// BENCHMARK.json is generated from the metric tables; a name added to
// one and not the other fails here.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the module: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale; regenerate with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
	if n := len(perLayerDefs); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}
