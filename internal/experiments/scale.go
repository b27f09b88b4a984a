package experiments

import (
	"fmt"
	"math"
	"time"

	frt "flexrpc/internal/runtime"
	"flexrpc/internal/stats"
)

// Scale experiment: multicore server scaling. Each connection
// carries pipelined calls from several client goroutines; the server
// either dispatches them serially (the seed behavior) or through the
// worker pool with a coalescing reply writer and the sharded
// at-most-once cache; a third leg adds client-side [batchable] call
// merging. Two workloads bracket the design space: a pure null RPC
// (per-call CPU overhead, scales only with real cores) and a null
// RPC whose handler stalls ~200µs simulating a backend wait (scales
// with workers even on one core, the way a blocked NFS handler
// would).

const (
	scaleWorkers = 8 // server worker-pool size and client drivers per conn
	scaleConns   = 8 // connections in the multi-connection rows
	scaleStall   = 200 * time.Microsecond
)

// The PDL marks nop [batchable] so the batched leg can merge calls.
// It is deliberately NOT [idempotent]: every call must traverse the
// at-most-once reply cache, the structure whose sharding the figure
// is measuring.
const scalePDL = "interface Null {\n    [batchable] nop();\n};\n"

type scaleMode struct {
	name    string
	workers int // server pool size; 1 = the serial loop
	shards  int // reply-cache shards; 1 = single mutex
	batch   bool
}

var scaleModes = []scaleMode{
	{name: "serial", workers: 1, shards: 1},
	{name: fmt.Sprintf("concurrent/%d", scaleWorkers), workers: scaleWorkers, shards: scaleWorkers},
	{name: fmt.Sprintf("concurrent/%d+batch", scaleWorkers), workers: scaleWorkers, shards: scaleWorkers, batch: true},
}

func scaleLabel(stall time.Duration, conns int, m scaleMode) string {
	workload := "null"
	if stall > 0 {
		workload = fmt.Sprintf("stall %v", stall)
	}
	return fmt.Sprintf("%s conns %d %s", workload, conns, m.name)
}

// figScale measures calls/s for each server mode × workload ×
// connection count, plus the machinery's own counters: how many
// replies each writer flush coalesced, how many calls each batch
// frame carried, and how often a cache shard was found locked.
var figScale = &Figure{
	Name: "scale",
	Title: fmt.Sprintf("Scale: pipelined null RPC, %d drivers/conn; stall simulates a %v backend wait",
		scaleWorkers, scaleStall),
	Note: "speedup is vs the serial row of the same workload and conn count; " +
		"null-RPC scaling needs real cores, stall scaling only needs workers",
	Columns: []Column{
		{Name: "calls/s", Unit: "1/s", Format: "%.0f"},
		{Name: "speedup", Unit: "ratio", Format: "%.2f"},
		{Name: "coalesce/flush", Unit: "count", Format: "%.2f"},
		{Name: "batch/frame", Unit: "count", Format: "%.2f"},
		{Name: "shard waits", Unit: "count", Format: "%.0f"},
	},
	Run: func(s Size) (*Result, error) {
		calls := pick(s, 20000, 3000, 400)
		res := &Result{}
		for _, stall := range []time.Duration{0, scaleStall} {
			for _, conns := range []int{1, scaleConns} {
				var serial float64
				for _, m := range scaleModes {
					row, err := scaleRow(calls, m, stall, conns)
					if err != nil {
						return nil, err
					}
					if m.workers == 1 {
						serial = row.Cells[0]
					}
					row.Cells[1] = row.Cells[0] / serial
					res.Rows = append(res.Rows, row)
				}
			}
		}
		return res, nil
	},
	Claims: []Claim{
		rowCount("two workloads x two connection counts x three modes", 12),
		everyRow("every mode completes its calls", anyRow, ">", 0, "calls/s"),
		// A stalled handler holds a worker, not a core: eight workers
		// must overlap the waits even on one CPU (8x measured).
		cmp("one connection, stalled handler: the worker pool is at least 2x serial",
			ref{scaleLabel(scaleStall, 1, scaleModes[1]), "calls/s"}, ">=", 2,
			ref{scaleLabel(scaleStall, 1, scaleModes[0]), "calls/s"}),
	},
}

// scaleRow runs calls calls through one server mode and reports the
// achieved rate plus the mechanism counters.
func scaleRow(calls int, m scaleMode, stall time.Duration, conns int) (Row, error) {
	bed, err := newSessionBed(bedSpec{
		pdl: scalePDL,
		handler: func(*frt.Call) error {
			if stall > 0 {
				time.Sleep(stall)
			}
			return nil
		},
		workers: m.workers, shards: m.shards,
	})
	if err != nil {
		return Row{}, err
	}
	bed.cache.SetStats(bed.stats)

	clientStats := stats.New([]string{"nop"})
	rconns := make([]*frt.RobustConn, conns)
	for i := range rconns {
		rconns[i] = bed.robust(bed.dial(256), i, frt.RobustOptions{}, clientStats)
		if m.batch {
			// MaxCalls matches the driver count so steady-state
			// batches flush on size (on the enqueuer, immediately)
			// rather than waiting out the timer: the timer is the
			// lone-call latency bound, not the throughput path.
			rconns[i].EnableBatching(frt.BatchOptions{MaxCalls: scaleWorkers})
		}
	}
	perDriver := max(calls/(conns*scaleWorkers), 1)
	l, err := bed.closedLoop(rconns, scaleWorkers, 0,
		func(issued int, _ time.Duration) bool { return issued < perDriver },
		func(error) bool { return false })
	if err != nil {
		return Row{}, err
	}

	// A ratio with no events behind it is not measured.
	per := func(n, events uint64) float64 {
		if events == 0 {
			return math.NaN()
		}
		return float64(n) / float64(events)
	}
	ss, cs := bed.stats.Snapshot(), clientStats.Snapshot()
	return Row{Label: scaleLabel(stall, conns, m), Cells: []float64{
		float64(l.issued) / l.elapsed.Seconds(),
		0, // speedup: the caller knows the serial row
		per(ss.FlushedRecords, ss.Flushes),
		per(cs.BatchedCalls, cs.BatchFlushes),
		float64(bed.cache.Contention()),
	}}, nil
}
