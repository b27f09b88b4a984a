package experiments

import (
	"context"
	"sync"
	"time"

	"flexrpc/internal/core"
	"flexrpc/internal/netsim"
	"flexrpc/internal/pres"
	frt "flexrpc/internal/runtime"
	"flexrpc/internal/stats"
	"flexrpc/internal/sunrpc"
	"flexrpc/internal/transport/suntcp"
)

// The null-RPC session testbed the beyond-the-paper figures (faults,
// scale, overload, c10k) share: a one-operation interface whose
// handler is the only per-figure code, served through the at-most-once
// session layer behind a Sun RPC server. The figures differ in how
// they size it and what they connect to it, not in how it is built.

// bedSpec sizes the testbed's server side.
type bedSpec struct {
	pdl      string // optional PDL over "interface Null { nop(); }"
	handler  func(*frt.Call) error
	workers  int // shared worker pool; 0 leaves the inline default
	cacheCap int // reply-cache capacity; 0 is frt.DefaultReplyCacheSize
	shards   int // reply-cache shards; 0 derives them from GOMAXPROCS
}

type sessionBed struct {
	pres  *pres.Presentation
	disp  *frt.Dispatcher
	cache *frt.ReplyCache
	sess  *frt.SessionServer
	srv   *sunrpc.Server
	stats *stats.Endpoint // the server's counters
	opIdx int
	req   []byte // the encoded nop request
}

func newSessionBed(spec bedSpec) (*sessionBed, error) {
	opts := core.Options{
		Frontend: core.FrontendCORBA, Filename: "null.idl",
		Source: `interface Null { void nop(); };`,
	}
	if spec.pdl != "" {
		opts.PDL, opts.PDLFilename = spec.pdl, "null.pdl"
	}
	compiled, err := core.Compile(opts)
	if err != nil {
		return nil, err
	}
	b := &sessionBed{pres: compiled.Pres, stats: stats.New(nil)}
	b.disp = frt.NewDispatcher(b.pres)
	b.disp.Handle("nop", spec.handler)
	plan, err := b.disp.Plan(frt.XDRCodec)
	if err != nil {
		return nil, err
	}
	b.cache = frt.NewReplyCacheSharded(spec.cacheCap, spec.shards)
	b.sess = frt.NewSessionServer(b.disp, plan, b.cache)
	b.srv = suntcp.NewSessionServer(b.sess, b.pres.Interface)
	b.srv.SetConcurrency(spec.workers)
	b.srv.SetStats(b.stats)

	b.opIdx = plan.OpIndex("nop")
	enc := frt.XDRCodec.NewEncoder()
	if err := plan.Ops[b.opIdx].EncodeRequest(enc, nil); err != nil {
		return nil, err
	}
	b.req = enc.Bytes()
	return b, nil
}

// nopHandler is the null RPC.
func nopHandler(*frt.Call) error { return nil }

// dial serves one in-memory connection, its pipe buffering the given
// number of writes, and returns the client end.
func (b *sessionBed) dial(buffered int) *suntcp.Conn {
	cc, sc := netsim.BufferedPipe(netsim.LinkParams{}, buffered)
	go func() { _ = b.srv.ServeConn(sc) }()
	return suntcp.Dial(cc, b.pres)
}

// robust puts the at-most-once session client on conn, reporting to
// clientStats. Client ids start at 1: id is the caller's zero-based
// connection index.
func (b *sessionBed) robust(conn frt.Conn, id int, opts frt.RobustOptions, clientStats *stats.Endpoint) *frt.RobustConn {
	opts.ClientID, opts.AtMostOnce = uint32(id+1), true
	r := frt.NewRobustConn(conn, b.pres, opts)
	r.SetStats(clientStats)
	return r
}

// closedLoad is what a closed loop of callers measured.
type closedLoad struct {
	issued    int
	lat       stats.HistogramSnapshot // completed calls
	withinSLO uint64                  // completed calls no slower than the loop's slo
	elapsed   time.Duration
}

// closedLoop runs drivers callers on every connection, each calling nop
// back to back while more(calls it has issued, time since the start)
// holds, then closes the connections. A completed call counts toward
// withinSLO when it took at most slo (every one does when slo is 0). A
// failed call that tolerate accepts counts as issued but not
// completed; any other error is a harness bug, not load, and aborts the
// figure.
func (b *sessionBed) closedLoop(conns []*frt.RobustConn, drivers int, slo time.Duration,
	more func(issued int, since time.Duration) bool, tolerate func(error) bool) (closedLoad, error) {
	// One histogram per driver, merged afterwards: the drivers share no
	// cache line while the loop is being timed.
	type tally struct {
		issued    int
		lat       stats.Histogram
		withinSLO uint64
		err       error
	}
	tallies := make([]tally, len(conns)*drivers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, conn := &tallies[i], conns[i/drivers]
			var replyBuf []byte
			for more(t.issued, time.Since(start)) {
				t.issued++
				t0 := time.Now()
				reply, err := conn.CallContext(context.Background(), b.opIdx, b.req, replyBuf)
				switch {
				case err == nil:
					d := time.Since(t0)
					t.lat.Record(d)
					if slo <= 0 || d <= slo {
						t.withinSLO++
					}
					replyBuf = reply[:0]
				case !tolerate(err):
					t.err = err
					return
				}
			}
		}()
	}
	wg.Wait()
	l := closedLoad{elapsed: time.Since(start)}
	for _, conn := range conns {
		conn.Close()
	}
	for i := range tallies {
		t := &tallies[i]
		if t.err != nil {
			return closedLoad{}, t.err
		}
		l.issued += t.issued
		l.withinSLO += t.withinSLO
		lat := t.lat.Snapshot()
		l.lat.Merge(&lat)
	}
	return l, nil
}

// retries sums the per-operation retry counters of a client endpoint.
func retries(s *stats.Snapshot) (n uint64) {
	for _, o := range s.Ops {
		n += o.Retries
	}
	return n
}
