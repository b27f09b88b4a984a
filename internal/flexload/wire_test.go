package flexload

import (
	"encoding/json"
	"testing"
	"time"

	"flexrpc/internal/runtime"
)

// wireWorker runs one deterministic "worker process" slice of a
// 32-client run: clients clients starting at base, against its own
// virtual world (separate processes share nothing client-side).
func wireWorker(t *testing.T, clients, base int) *WireReport {
	t.Helper()
	fc := runtime.NewFakeClock()
	w := newVirtualWorld(t, fc, 99, 5, 20*time.Microsecond, 40*time.Microsecond)
	rep, err := Run(Target{
		Dial: func(id int) (runtime.Conn, error) { return &sessConn{w: w}, nil },
		Pres: w.p,
		Op:   "nop",
	}, Options{
		Clients:      clients,
		Mode:         Closed,
		Think:        2 * time.Millisecond,
		Warmup:       5 * time.Millisecond,
		Measure:      50 * time.Millisecond,
		Cooldown:     5 * time.Millisecond,
		Clock:        fc,
		Seed:         1234,
		ClientIDBase: base,
		Robust:       detRobust(),
		ServerStats:  w.srv,
		SLO:          20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Wire()
}

// TestCombineWireMergesWorkers: two worker slices of a split run,
// round-tripped through JSON the way the parent process receives them
// on the pipe, combine into one report whose tallies are the sums and
// whose percentiles come from the merged histograms — not from
// averaging the workers' summary numbers.
func TestCombineWireMergesWorkers(t *testing.T) {
	w0 := wireWorker(t, 16, 0)
	w1 := wireWorker(t, 16, 16)

	// The ClientIDBase decorrelates the slices: identical seeds with
	// different bases must not replay the same arrival schedule.
	if w0.Report.Issued == 0 || w1.Report.Issued == 0 {
		t.Fatal("a worker slice issued nothing")
	}
	if string(w0.Report.JSON()) == string(w1.Report.JSON()) {
		t.Fatal("worker slices with different ClientIDBase produced identical runs")
	}

	var rt []*WireReport
	for _, w := range []*WireReport{w0, w1} {
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var got WireReport
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		rt = append(rt, &got)
	}

	rep, err := CombineWire(rt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clients != 32 {
		t.Fatalf("combined clients = %d, want 32", rep.Clients)
	}
	if want := w0.Report.Completed + w1.Report.Completed; rep.Completed != want {
		t.Fatalf("combined completed = %d, want %d", rep.Completed, want)
	}
	if want := w0.Report.Issued + w1.Report.Issued; rep.Issued != want {
		t.Fatalf("combined issued = %d, want %d", rep.Issued, want)
	}
	if want := w0.Report.Retries + w1.Report.Retries; rep.Retries != want {
		t.Fatalf("combined retries = %d, want %d", rep.Retries, want)
	}

	// Percentiles must match recomputing over the bucket-wise merge of
	// the worker histograms.
	merged := w0.Snapshot
	merged.Merge(w1.Snapshot)
	for i := range merged.Ops {
		if merged.Ops[i].Name != "nop" {
			continue
		}
		lat := &merged.Ops[i].Latency
		if rep.P99Ns != int64(lat.Quantile(0.99)) || rep.P50Ns != int64(lat.Quantile(0.50)) {
			t.Fatalf("combined percentiles p50=%d p99=%d; merged histogram says p50=%d p99=%d",
				rep.P50Ns, rep.P99Ns, int64(lat.Quantile(0.50)), int64(lat.Quantile(0.99)))
		}
	}
	if rep.P50Ns <= 0 || rep.P99Ns < rep.P50Ns {
		t.Fatalf("percentile order broken: p50=%d p99=%d", rep.P50Ns, rep.P99Ns)
	}
	if rep.GoodputPerSec <= 0 {
		t.Fatal("combined goodput is zero")
	}
}

// TestCombineWireRejectsMismatch: slices from different ops or
// different measure windows are not comparable.
func TestCombineWireRejectsMismatch(t *testing.T) {
	a := &WireReport{Report: Report{Op: "nop", MeasureNs: int64(time.Second)}}
	b := &WireReport{Report: Report{Op: "ping", MeasureNs: int64(time.Second)}}
	if _, err := CombineWire([]*WireReport{a, b}); err == nil {
		t.Fatal("combined reports for different ops")
	}
	c := &WireReport{Report: Report{Op: "nop", MeasureNs: int64(2 * time.Second)}}
	if _, err := CombineWire([]*WireReport{a, c}); err == nil {
		t.Fatal("combined reports for different measure windows")
	}
	if _, err := CombineWire(nil); err == nil {
		t.Fatal("combined zero reports")
	}
}
