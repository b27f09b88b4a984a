package experiments

import (
	"errors"
	"fmt"
	"sort"
	"time"

	frt "flexrpc/internal/runtime"
	"flexrpc/internal/stats"
)

// Overload experiment: deliberate degradation under offered load
// beyond capacity. The server's capacity is a backend bottleneck
// (overloadBackend concurrent slots, overloadService hold time each);
// closed-loop clients offer 2x-10x that capacity. Unprotected, every
// excess call queues at the bottleneck and latency grows linearly with
// the load multiple — the latency SLO dies even though every call
// "succeeds". With admission control the excess is shed before the
// bottleneck with a pushback frame, clients honor the advisory
// RetryAfter, and the calls that do get through keep bottleneck-speed
// latency: lower goodput is never the failure mode, unbounded queueing
// is.
//
// Goodput counts completions within the SLO — a reply that arrives
// after the caller's patience is spent is overhead, not service.

const (
	overloadBackend    = 4                    // backend bottleneck concurrency
	overloadService    = time.Millisecond     // backend hold time per call
	overloadSLO        = 5 * time.Millisecond // latency bound that defines goodput
	overloadRetryAfter = time.Millisecond     // server's advisory pushback pause
)

// overloadMode selects the protection installed for one cell.
type overloadMode struct {
	name      string
	admission bool
	budget    bool
}

var overloadModes = []overloadMode{
	{name: "unprotected"},
	{name: "admission", admission: true},
	{name: "admission+budget", admission: true, budget: true},
}

func overloadLabel(load int, m overloadMode) string { return fmt.Sprintf("load %dx %s", load, m.name) }

// overloadReps is how many windows each cell measures; the cell is the
// window with the median p99, every column of it. overloadP99 is that
// column's index.
const (
	overloadReps = 9
	overloadP99  = 3
)

// overloadTop is the highest offered load, a multiple of the backend,
// that every run size reaches; the claims are made there, where the
// protections matter most.
const overloadTop = 10

// atTop names a cell of one mode's row at overloadTop.
func atTop(mode int, col string) ref {
	return ref{overloadLabel(overloadTop, overloadModes[mode]), col}
}

var figOverload = &Figure{
	Name: "overload",
	Title: fmt.Sprintf("Overload: %d-slot backend, %v service; goodput = completions within the %v SLO",
		overloadBackend, overloadService, overloadSLO),
	Note: "unprotected, excess load queues at the backend and p99 grows with the load multiple; " +
		"admission sheds it before the bottleneck and keeps admitted latency flat",
	Columns: []Column{
		{Name: "goodput/s", Unit: "1/s", Format: "%.0f"},
		{Name: "ok %", Unit: "%", Format: "%.1f"},
		{Name: "p50 ms", Unit: "ms", Format: "%.2f"},
		{Name: "p99 ms", Unit: "ms", Format: "%.2f"},
		{Name: "retries/call", Unit: "count", Format: "%.2f"},
		{Name: "shed/call", Unit: "count", Format: "%.2f"},
		{Name: "suppressed", Unit: "count", Format: "%.0f"},
	},
	Run: func(s Size) (*Result, error) {
		window := pick(s, 250*time.Millisecond, 80*time.Millisecond, 80*time.Millisecond)
		loads := pick(s, []int{2, 4, overloadTop}, []int{2, 4, overloadTop}, []int{2, overloadTop})
		res := &Result{}
		for _, load := range loads {
			// Each cell keeps every driver in a call, so a stall of the
			// host — a descheduled vCPU, a few ms to tens of ms — lands
			// on all of them at once: one stall in a window sets its
			// p99, whatever the protection, and a protected row that met
			// one reads like the unprotected queue. So each mode runs
			// overloadReps windows, taken in turn with the other modes
			// so that host noise falls on them alike, and reports the
			// median one: a stall in a minority of windows moves it no
			// more than a window at the other extreme does.
			reps := make([][]Row, len(overloadModes))
			for rep := 0; rep < overloadReps; rep++ {
				for i, m := range overloadModes {
					row, err := overloadCell(window, m, load)
					if err != nil {
						return nil, err
					}
					reps[i] = append(reps[i], row)
				}
			}
			for _, rows := range reps {
				sort.Slice(rows, func(a, b int) bool { return rows[a].Cells[overloadP99] < rows[b].Cells[overloadP99] })
				res.Rows = append(res.Rows, rows[len(rows)/2])
			}
		}
		return res, nil
	},
	// The headline claims, at the highest offered load: admission
	// control sustains higher goodput and a lower p99 than the
	// unprotected server, and a retry-budgeted client wastes fewer
	// retries than an unbudgeted one against the same pushback storm.
	// Modes by index into overloadModes.
	Claims: []Claim{
		everyRow("every cell serves calls", anyRow, ">", 0, "ok %"),
		cmp("admission sustains higher goodput than unprotected", atTop(1, "goodput/s"), ">", 1, atTop(0, "goodput/s")),
		cmp("admission keeps p99 below unprotected", atTop(1, "p99 ms"), "<", 1, atTop(0, "p99 ms")),
		bound("the unbudgeted client retries under pushback", ">", 0, atTop(1, "retries/call")),
		cmp("the retry budget cuts retries per call", atTop(2, "retries/call"), "<", 1, atTop(1, "retries/call")),
		bound("the retry budget suppresses retries under pushback", ">", 0, atTop(2, "suppressed")),
	},
}

// overloadCell runs one load x protection cell: load*overloadBackend
// closed-loop drivers, each over its own connection, against one
// session server whose handler funnels through the backend
// bottleneck.
func overloadCell(window time.Duration, m overloadMode, load int) (Row, error) {
	sem := make(chan struct{}, overloadBackend)
	bed, err := newSessionBed(bedSpec{handler: func(*frt.Call) error {
		sem <- struct{}{}
		time.Sleep(overloadService)
		<-sem
		return nil
	}})
	if err != nil {
		return Row{}, err
	}
	if m.admission {
		// The cap equals the backend: everything the bottleneck cannot
		// serve right now is pushed back instead of queued against it.
		bed.sess.SetAdmission(frt.NewAdmission(frt.AdmissionOptions{
			MaxInflight: overloadBackend,
			RetryAfter:  overloadRetryAfter,
			Stats:       bed.stats,
		}))
	}
	var budget *frt.RetryBudget
	if m.budget {
		// One budget shared by every driver: the aggregate retry rate
		// toward this backend is what must not amplify.
		budget = frt.NewRetryBudget(10, 0.1)
	}
	clientStats := stats.New([]string{"nop"})
	conns := make([]*frt.RobustConn, load*overloadBackend)
	for i := range conns {
		conns[i] = bed.robust(bed.dial(64), i, frt.RobustOptions{
			Policy: frt.RetryPolicy{
				MaxAttempts: 4,
				BaseBackoff: overloadRetryAfter,
				MaxBackoff:  4 * overloadRetryAfter,
				Seed:        int64(i + 1),
			},
			Budget: budget,
		}, clientStats)
	}
	// One closed-loop driver per connection for the window; a shed call
	// is load doing its work.
	l, err := bed.closedLoop(conns, 1, overloadSLO,
		func(_ int, since time.Duration) bool { return since < window },
		func(err error) bool {
			var shed *frt.ErrOverloaded
			return errors.As(err, &shed)
		})
	if err != nil {
		return Row{}, err
	}
	cs := clientStats.Snapshot()
	n := float64(max(l.issued, 1))
	return Row{Label: overloadLabel(load, m), Cells: []float64{
		float64(l.withinSLO) / l.elapsed.Seconds(),
		100 * float64(l.lat.Count) / n,
		float64(l.lat.Quantile(0.50).Nanoseconds()) / 1e6,
		float64(l.lat.Quantile(0.99).Nanoseconds()) / 1e6, // Cells[overloadP99]
		float64(retries(cs)) / n,
		float64(bed.stats.Load(stats.Sheds)) / n,
		float64(cs.RetrySuppressed),
	}}, nil
}
