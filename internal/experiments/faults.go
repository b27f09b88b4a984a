package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"flexrpc/internal/core"
	"flexrpc/internal/pres"
	frt "flexrpc/internal/runtime"
	"flexrpc/internal/transport/faultconn"
)

// Faults experiment: null RPC through the at-most-once session layer
// over a fault-injecting transport. The paper's systems assume a
// reliable channel; this measures what the robustness machinery
// costs when the channel is not — p50/p99 latency and goodput under
// injected loss, with the retry policy on versus off.

// FaultsConfig sizes the faults experiment.
type FaultsConfig struct {
	Calls int // calls per configuration
}

// DefaultFaultsConfig returns the full-size run.
func DefaultFaultsConfig() FaultsConfig { return FaultsConfig{Calls: 5000} }

// sessLoopback carries session frames straight into a SessionServer,
// which lands each reply in the caller's buffer the way a real wire
// would.
type sessLoopback struct{ sess *frt.SessionServer }

func (l *sessLoopback) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	return l.sess.HandleAppend(context.Background(), opIdx, req, replyBuf[:0]), nil
}

func (l *sessLoopback) Close() error { return nil }

// FigFaults measures null-RPC latency percentiles and goodput under
// 1% and 5% injected message loss, with retries off (errors surface
// to the caller) and on (the session layer masks the loss).
func FigFaults(cfg FaultsConfig) (*Table, error) {
	if cfg.Calls <= 0 {
		cfg.Calls = DefaultFaultsConfig().Calls
	}
	compiled, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA, Filename: "null.idl",
		Source: `interface Null { void nop(); };`,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Faults: null RPC under injected loss, at-most-once session layer",
		Note:    "retries off surfaces loss to the caller; retries on masks it and pays latency tail",
		Headers: []string{"success%", "p50 µs", "p99 µs", "calls/s", "retries/call", "replays/call"},
	}
	for _, loss := range []float64{0.01, 0.05} {
		for _, retries := range []bool{false, true} {
			row, err := faultsRow(compiled.Pres, cfg.Calls, loss, retries)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

func faultsRow(p *pres.Presentation, calls int, loss float64, retries bool) (Row, error) {
	disp := frt.NewDispatcher(p)
	disp.Handle("nop", func(c *frt.Call) error { return nil })
	plan, err := frt.NewPlan(p, frt.XDRCodec, nil)
	if err != nil {
		return Row{}, err
	}
	sess := frt.NewSessionServer(disp, plan, frt.NewReplyCache(frt.DefaultReplyCacheSize))
	sched := faultconn.New(faultconn.Profile{
		Seed:        1,
		DropRequest: loss / 2,
		DropReply:   loss / 2,
	})
	policy := frt.RetryPolicy{MaxAttempts: 1}
	if retries {
		policy = frt.RetryPolicy{
			MaxAttempts:    8,
			AttemptTimeout: 2 * time.Millisecond,
			BaseBackoff:    100 * time.Microsecond,
			MaxBackoff:     time.Millisecond,
			Seed:           1,
		}
	}
	conn := frt.NewRobustConn(sched.Wrap(&sessLoopback{sess: sess}), p, frt.RobustOptions{
		ClientID:   1,
		AtMostOnce: true,
		Policy:     policy,
	})
	client, err := frt.NewClient(p, frt.XDRCodec, conn, nil)
	if err != nil {
		return Row{}, err
	}
	client.EnableStats() // retries land on the client endpoint
	disp.EnableStats()   // replays land on the server dispatcher
	lat := make([]time.Duration, 0, calls)
	ok := 0
	start := time.Now()
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		_, _, err := client.Invoke("nop", nil, nil, nil)
		if err == nil {
			ok++
			lat = append(lat, time.Since(t0))
		}
	}
	elapsed := time.Since(start)

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(q float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(q * float64(len(lat)-1))
		return float64(lat[i].Nanoseconds()) / 1e3
	}
	mode := "off"
	if retries {
		mode = "on"
	}
	var nretries, nreplays uint64
	for _, o := range client.Stats().Ops {
		nretries += o.Retries
	}
	for _, o := range disp.Stats().Ops {
		nreplays += o.Replays
	}
	return Row{
		Label: fmt.Sprintf("loss %g%% retries %s", loss*100, mode),
		Values: []string{
			f1(100 * float64(ok) / float64(calls)),
			f1(pct(0.50)),
			f1(pct(0.99)),
			fmt.Sprintf("%.0f", float64(calls)/elapsed.Seconds()),
			f2(float64(nretries) / float64(calls)),
			f2(float64(nreplays) / float64(calls)),
		},
	}, nil
}
