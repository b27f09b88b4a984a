package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"flexrpc/internal/flexload"
	"flexrpc/internal/netpoll"
	frt "flexrpc/internal/runtime"
	"flexrpc/internal/stats"
	"flexrpc/internal/transport/suntcp"
)

// C10k experiment: the connection axis. The compact-connection server
// keeps per-connection cost to one reader goroutine and one small
// struct; execution happens in a bounded shared worker pool, so total
// goroutines are O(conns + workers), not O(conns × workers) the way a
// per-connection pool would be. flexload offers a fixed aggregate
// open-loop rate across every connection count, so the columns compare
// like with like: the load is constant, only the connection count
// grows, and throughput and p99 must hold while goroutines/connection
// stays ~1.
//
// The netpoll rows serve the same load through the netpoll runtime
// (SetNetpoll: readiness-driven reads, zero goroutines per idle
// connection) over real unix sockets, flexload driving an active
// subset while the rest of the population sits idle — the population
// whose cost the netpoll runtime takes to zero. They are skipped on
// platforms without poller support.

const (
	c10kWorkers = 8                     // shared worker-pool size
	c10kSLO     = 50 * time.Millisecond // latency bound that defines goodput
	c10kShards  = 4                     // unix listeners (accept shards) of the netpoll rows
)

// c10kConfig sizes one run.
type c10kConfig struct {
	conns           []int         // goroutine-reader rows
	rate            float64       // aggregate open-loop offered load, calls/sec
	warmup, measure time.Duration // flexload phases
	netpollConns    []int         // netpoll rows, clamped to the RLIMIT_NOFILE budget
	netpollActive   int           // connections flexload drives in a netpoll row
}

var figC10K = &Figure{
	Name: "c10k",
	Columns: []Column{
		{Name: "offered/s", Unit: "1/s", Format: "%.0f"},
		{Name: "goodput/s", Unit: "1/s", Format: "%.0f"},
		{Name: "p50 ms", Unit: "ms", Format: "%.2f"},
		{Name: "p99 ms", Unit: "ms", Format: "%.2f"},
		{Name: "goroutines", Unit: "count", Format: "%.0f"},
		{Name: "g/conn", Unit: "count", Format: "%.2f"},
		{Name: "KiB/conn", Unit: "KiB", Format: "%.2f"},
		{Name: "goroutine limit", Unit: "count", Format: "%.0f", Hidden: true},
		{Name: "rate/s", Unit: "1/s", Format: "%.0f", Hidden: true},
		{Name: "completed", Unit: "count", Format: "%.0f", Hidden: true},
		{Name: "within SLO", Unit: "count", Format: "%.0f", Hidden: true},
		{Name: "errors", Unit: "count", Format: "%.0f", Hidden: true},
	},
	// 100 → 1k → 10k connections under the same 2000 calls/sec, plus
	// netpoll rows asking for 10k and 100k (fd budget permitting).
	Run: func(s Size) (*Result, error) {
		cfg := pick(s,
			c10kConfig{conns: []int{100, 1000, 10000}, rate: 2000, warmup: 100 * time.Millisecond, measure: 300 * time.Millisecond,
				netpollConns: []int{10000, 100000}, netpollActive: 256},
			c10kConfig{conns: []int{100, 1000}, rate: 2000, warmup: 100 * time.Millisecond, measure: 100 * time.Millisecond,
				netpollConns: []int{1000}, netpollActive: 128},
			c10kConfig{conns: []int{32, 128}, rate: 600, warmup: 30 * time.Millisecond, measure: 100 * time.Millisecond,
				netpollConns: []int{64, 384}, netpollActive: 32})
		res := &Result{
			Title: fmt.Sprintf("C10k: null RPC, %d shared workers, %.0f calls/s aggregate open-loop offered load; goodput = completions within the %v SLO",
				c10kWorkers, cfg.rate, c10kSLO),
			Note: "per-connection cost is one reader goroutine + one compact struct; " +
				"execution is the shared pool, so goroutines grow with conns, not conns × workers",
		}
		if !netpoll.Supported() {
			cfg.netpollConns = nil
			res.Note += "; netpoll rows skipped: no poller on this platform"
		}
		seen := make(map[int]bool)
		for i, want := range append(cfg.conns, cfg.netpollConns...) {
			conns, poller := want, i >= len(cfg.conns)
			if poller {
				clamped := ""
				if conns, clamped = netpollConnBudget(want); clamped != "" {
					res.Note += "; " + clamped
				}
				if seen[conns] {
					continue // a larger request clamped onto an earlier row
				}
				seen[conns] = true
			}
			row, err := c10kCell(cfg, conns, poller)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
		return res, nil
	},
	// Every row carries its own thresholds as hidden cells, so the same
	// claims read across both kinds of row. The parent of this figure
	// asserted them at the largest connection count of each kind; they
	// are no weaker for holding at the smaller counts too.
	Claims: []Claim{
		{Name: "netpoll rows are present where the platform has a poller", Check: func(r *Report) error {
			if last := r.Rows[len(r.Rows)-1].Label; netpoll.Supported() != strings.HasPrefix(last, "netpoll ") {
				return fmt.Errorf("last row is %q, poller support is %v", last, netpoll.Supported())
			}
			return nil
		}},
		// (a) The goroutine bill. Readers cost one per connection plus
		// the shared pool and a constant of harness slack (conns +
		// 8·workers + 64): a per-connection pool would sit at conns ×
		// (workers+1) and fail by orders of magnitude. Netpoll
		// connections cost none (GOMAXPROCS + shards + workers + 64),
		// where the goroutine-reader path sits at ≈ conns.
		rowwise("standing goroutines stay within the per-row limit", "goroutines", "<=", 1, "goroutine limit"),
		// (b) The offered load is still served within the SLO with the
		// full population connected: goodput within a factor of two of
		// the offered rate, the overwhelming majority of completions
		// inside the SLO, no errors.
		rowwise("goodput is at least half the offered rate", "goodput/s", ">=", 0.5, "rate/s"),
		everyRow("calls complete", anyRow, ">", 0, "completed"),
		rowwise("nine in ten completions land inside the SLO", "within SLO", ">=", 0.9, "completed"),
		everyRow("no call errors", anyRow, "==", 0, "errors"),
	},
}

// c10kCell brings up one shared-pool server and its full connection
// population, measures the standing cost of that population before any
// traffic, then lets flexload drive the open-loop load.
//
// A goroutine-reader row pre-dials in-memory connections: each costs
// exactly one ServeConn reader goroutine (client read loops start
// lazily, on the first call) and flexload drives them all. A poller
// row serves sharded unix listeners in netpoll mode: every accepted
// conn registers with the fixed poller set and no goroutine is spawned
// for it; flexload drives an active subset while the rest sit idle.
func c10kCell(cfg c10kConfig, conns int, poller bool) (Row, error) {
	bed, err := newSessionBed(bedSpec{
		handler: nopHandler, workers: c10kWorkers,
		cacheCap: max(2*conns, frt.DefaultReplyCacheSize), shards: 64,
	})
	if err != nil {
		return Row{}, err
	}
	label, limit := fmt.Sprintf("conns %d", conns), conns+8*c10kWorkers+64
	clients := make([]*suntcp.Conn, conns)
	var lns []net.Listener
	var socks []string
	if poller {
		label, limit = "netpoll "+label, runtime.GOMAXPROCS(0)+c10kShards+c10kWorkers+64
		clients = clients[:min(cfg.netpollActive, conns)]
		bed.srv.SetNetpoll(true)
		dir, err := os.MkdirTemp("", "c10knp")
		if err != nil {
			return Row{}, err
		}
		defer os.RemoveAll(dir)
		for i := 0; i < c10kShards; i++ {
			socks = append(socks, filepath.Join(dir, fmt.Sprintf("s%d.sock", i)))
			ln, err := net.Listen("unix", socks[i])
			if err != nil {
				return Row{}, err
			}
			lns = append(lns, ln)
		}
	}

	// Two GC cycles before the baseline: sync.Pool contents from the
	// earlier cells survive one collection as victims, and their
	// release between the two measurements would otherwise swallow the
	// per-connection growth.
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	baseline := runtime.NumGoroutine()
	if poller {
		go func() { _ = bed.srv.ServeShards(lns...) }()
	}

	var idle []net.Conn // the poller population's client ends
	measure := func() (Row, error) {
		// established reports whether the server holds the whole
		// population: every reader up, or every conn owned by a poller.
		established := func() bool { return runtime.NumGoroutine() >= baseline+conns }
		if poller {
			established = func() bool { return bed.stats.Load(stats.PollerConnsRegistered) >= uint64(conns) }
			for i := 0; i < conns; i++ {
				cc, err := net.Dial("unix", socks[i%c10kShards])
				if err != nil {
					return Row{}, fmt.Errorf("dial %d of %d: %w", i, conns, err)
				}
				idle = append(idle, cc)
			}
		}
		for i := range clients {
			if poller {
				clients[i] = suntcp.Dial(idle[i], bed.pres)
			} else {
				clients[i] = bed.dial(64)
			}
		}
		for deadline := time.Now().Add(30 * time.Second); !established(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				return Row{}, errors.New("the server never held the whole population")
			}
		}
		time.Sleep(10 * time.Millisecond) // the lazily-created worker pool
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		goroutines := runtime.NumGoroutine() - baseline
		// Heap per connection is reported for real sockets only: an
		// in-memory pipe's buffers are the harness's, not the server's.
		kibPerConn := math.NaN()
		if poller {
			kibPerConn = max(float64(m1.HeapAlloc)-float64(m0.HeapAlloc), 0) / float64(conns) / 1024
		}

		rep, err := flexload.Run(flexload.Target{
			Dial:    func(id int) (frt.Conn, error) { return clients[id], nil },
			Pres:    bed.pres,
			Op:      "nop",
			Request: bed.req,
		}, flexload.Options{
			Clients:     len(clients),
			Mode:        flexload.Open,
			Rate:        cfg.rate,
			Warmup:      cfg.warmup,
			Measure:     cfg.measure,
			Cooldown:    50 * time.Millisecond,
			Seed:        Seed,
			Robust:      &frt.RobustOptions{AtMostOnce: true},
			ServerStats: bed.stats,
			SLO:         c10kSLO,
		})
		if err != nil {
			return Row{}, err
		}
		return Row{Label: label, Cells: []float64{
			float64(rep.Offered) / time.Duration(rep.MeasureNs).Seconds(),
			rep.GoodputPerSec,
			float64(rep.P50Ns) / 1e6,
			float64(rep.P99Ns) / 1e6,
			float64(goroutines),
			float64(goroutines) / float64(conns),
			kibPerConn,
			float64(limit), cfg.rate, float64(rep.Completed), float64(rep.WithinSLO), float64(rep.Errors),
		}}, nil
	}
	row, err := measure()
	// flexload closed the connections it drove; Drain tears down the rest
	// of the population server-side — so the shared pool is gone before
	// the next cell counts goroutines — then the idle client ends release
	// their descriptors.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if derr := bed.srv.Drain(ctx); derr != nil && err == nil {
		err = fmt.Errorf("drain: %w", derr)
	}
	for _, c := range idle {
		c.Close()
	}
	if err != nil {
		return Row{}, fmt.Errorf("%s: %w", label, err)
	}
	return row, nil
}

// netpollConnBudget clamps a requested connection count to the
// process's descriptor budget: each in-process connection costs two
// fds (the client end and the accepted end), plus slack for listeners,
// pollers, stdio and the harness. The soft limit is raised to the hard
// limit first — the in-process equivalent of ci.sh's ulimit raise.
func netpollConnBudget(want int) (got int, note string) {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return want, ""
	}
	if rl.Cur < rl.Max {
		raised := rl
		raised.Cur = rl.Max
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &raised); err == nil {
			rl = raised
		}
	}
	budget := max((int(rl.Cur)-768)/2, 1)
	if want <= budget {
		return want, ""
	}
	return budget, fmt.Sprintf("netpoll row clamped %d → %d conns by RLIMIT_NOFILE=%d (two fds per in-process conn)",
		want, budget, rl.Cur)
}
