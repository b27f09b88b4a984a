package experiments

import (
	"context"
	"fmt"
	"time"

	frt "flexrpc/internal/runtime"
	"flexrpc/internal/stats"
	"flexrpc/internal/transport/faultconn"
)

// Faults experiment: null RPC through the at-most-once session layer
// over a fault-injecting transport. The paper's systems assume a
// reliable channel; this measures what the robustness machinery
// costs when the channel is not — p50/p99 latency and goodput under
// 1% and 5% injected message loss, with the retry policy off (errors
// surface to the caller) versus on (the session layer masks the loss).

// sessLoopback carries session frames straight into a SessionServer,
// which lands each reply in the caller's buffer the way a real wire
// would.
type sessLoopback struct{ sess *frt.SessionServer }

func (l *sessLoopback) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	return l.sess.HandleAppend(context.Background(), opIdx, req, replyBuf[:0]), nil
}

func (l *sessLoopback) Close() error { return nil }

func faultsLabel(lossPct float64, retries bool) string {
	mode := "off"
	if retries {
		mode = "on"
	}
	return fmt.Sprintf("loss %g%% retries %s", lossPct, mode)
}

var figFaults = &Figure{
	Name:  "faults",
	Title: "Faults: null RPC under injected loss, at-most-once session layer",
	Note:  "retries off surfaces loss to the caller; retries on masks it and pays latency tail",
	Columns: []Column{
		{Name: "success%", Unit: "%", Format: "%.1f"},
		{Name: "p50 µs", Unit: "us", Format: "%.1f"},
		{Name: "p99 µs", Unit: "us", Format: "%.1f"},
		{Name: "calls/s", Unit: "1/s", Format: "%.0f"},
		{Name: "retries/call", Unit: "count", Format: "%.2f"},
		{Name: "replays/call", Unit: "count", Format: "%.2f"},
	},
	Run: func(s Size) (*Result, error) {
		calls := pick(s, 5000, 1000, 400)
		res := &Result{}
		for _, lossPct := range []float64{1, 5} {
			for _, retries := range []bool{false, true} {
				row, err := faultsRow(calls, lossPct, retries)
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, row)
			}
		}
		return res, nil
	},
	Claims: []Claim{
		rowCount("two loss rates x retries off and on", 4),
		// With retries on, the session layer must mask every injected
		// loss; even the smoke run's 400 calls at 8 attempts each make
		// failure astronomically unlikely, so demand perfection.
		bound("retries mask every injected loss", "==", 100,
			ref{faultsLabel(1, true), "success%"}, ref{faultsLabel(5, true), "success%"}),
		// With retries off, 5% loss must actually lose calls — otherwise
		// the injector is not injecting.
		bound("5% loss without retries loses calls", "<", 100, ref{faultsLabel(5, false), "success%"}),
	},
}

func faultsRow(calls int, lossPct float64, retry bool) (Row, error) {
	bed, err := newSessionBed(bedSpec{handler: nopHandler})
	if err != nil {
		return Row{}, err
	}
	bed.disp.EnableStats() // replays land on the server dispatcher
	sched := faultconn.New(faultconn.Profile{Seed: Seed, DropRequest: lossPct / 200, DropReply: lossPct / 200})
	policy := frt.RetryPolicy{MaxAttempts: 1}
	if retry {
		policy = frt.RetryPolicy{
			MaxAttempts:    8,
			AttemptTimeout: 2 * time.Millisecond,
			BaseBackoff:    100 * time.Microsecond,
			MaxBackoff:     time.Millisecond,
			Seed:           Seed,
		}
	}
	clientStats := stats.New([]string{"nop"})
	conn := bed.robust(sched.Wrap(&sessLoopback{sess: bed.sess}), 0, frt.RobustOptions{Policy: policy}, clientStats)
	// One caller; a lost call is the measurement, not a failure.
	l, err := bed.closedLoop([]*frt.RobustConn{conn}, 1, 0,
		func(issued int, _ time.Duration) bool { return issued < calls },
		func(error) bool { return true })
	if err != nil {
		return Row{}, err
	}
	var replays uint64
	for _, o := range bed.disp.Stats().Ops {
		replays += o.Replays
	}
	n := float64(calls)
	return Row{Label: faultsLabel(lossPct, retry), Cells: []float64{
		100 * float64(l.lat.Count) / n,
		float64(l.lat.Quantile(0.50).Nanoseconds()) / 1e3,
		float64(l.lat.Quantile(0.99).Nanoseconds()) / 1e3,
		n / l.elapsed.Seconds(),
		float64(retries(clientStats.Snapshot())) / n,
		float64(replays) / n,
	}}, nil
}
