package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"flexrpc/internal/core"
	"flexrpc/internal/flexload"
	"flexrpc/internal/ir"
	"flexrpc/internal/netsim"
	frt "flexrpc/internal/runtime"
	"flexrpc/internal/stats"
	"flexrpc/internal/sunrpc"
	"flexrpc/internal/transport/suntcp"
)

// loadWorkerEnv lets a test binary act as a flexc load worker: the
// parent sets it on every child it forks, and TestMain dispatches on
// it before the testing framework parses flags. The real flexc binary
// dispatches on argv alone and ignores the variable.
const loadWorkerEnv = "FLEXC_LOAD_WORKER"

// runLoad is the flexc load subcommand: compile an interface, bring up
// a Sun RPC server with default handlers, and drive it with the
// flexload generator — N connections, open- or closed-loop, reporting
// goodput, latency percentiles and the session layer's retry/shed
// counters. The server is in-process over in-memory pipes by default;
// -netpoll serves the event-driven runtime over a real unix socket,
// -addr drives an external server instead, and -procs N forks N
// worker processes (re-executing this binary) whose WireReports the
// parent merges via Snapshot.Merge. With -check the run doubles as a
// smoke gate: non-zero goodput and a clean error taxonomy or a
// non-zero exit.
func runLoad(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flexc load", flag.ContinueOnError)
	var (
		frontend   = fs.String("frontend", "corba", "IDL front-end: corba, sun or mig")
		ifaceName  = fs.String("interface", "", "interface to drive (required when the file has several)")
		pdlFile    = fs.String("pdl", "", "PDL file modifying the presentation")
		style      = fs.String("style", "", "default presentation style: corba, sun or mig")
		opName     = fs.String("op", "", "operation to drive (default: the first)")
		conns      = fs.Int("conns", 256, "client connections (split across -procs workers)")
		mode       = fs.String("mode", "closed", "pacing: closed (think time) or open (Poisson arrivals)")
		rate       = fs.Float64("rate", 1000, "open-loop aggregate arrival rate, calls/sec")
		think      = fs.Duration("think", time.Millisecond, "closed-loop think time between calls")
		warmup     = fs.Duration("warmup", 100*time.Millisecond, "warmup phase (unmeasured)")
		measure    = fs.Duration("measure", time.Second, "measure window")
		cooldown   = fs.Duration("cooldown", 50*time.Millisecond, "cooldown phase (unmeasured)")
		payload    = fs.Int("payload", 0, "bytes per sequence<octet> in-argument")
		workers    = fs.Int("workers", 8, "server shared worker-pool size")
		slo        = fs.Duration("slo", 50*time.Millisecond, "latency SLO bounding goodput (0: count all completions)")
		seed       = fs.Int64("seed", 1, "arrival/jitter seed")
		procs      = fs.Int("procs", 1, "load-generating worker processes (1: generate in this process)")
		netpollOn  = fs.Bool("netpoll", false, "serve with the event-driven netpoll runtime over a real unix socket")
		addr       = fs.String("addr", "", "drive an external server at network:address (e.g. unix:/tmp/s.sock) instead of an in-process one")
		clientBase = fs.Int("client-base", 0, "global client-id offset for this process's clients (multi-process runs)")
		wire       = fs.Bool("wire", false, "emit a WireReport (report + raw histograms) as JSON, for a merging parent")
		jsonOut    = fs.Bool("json", false, "emit the report as JSON instead of text")
		check      = fs.Bool("check", false, "exit non-zero unless goodput > 0 and the run is error-free")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: flexc load [flags] <idl-file>")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fe, err := core.FrontendByName(*frontend)
	if err != nil {
		return err
	}
	opts := core.Options{
		Frontend:  fe,
		Filename:  fs.Arg(0),
		Source:    string(src),
		Interface: *ifaceName,
	}
	if opts.Style, err = parseStyle(*style); err != nil {
		return err
	}
	if *pdlFile != "" {
		pdlSrc, err := os.ReadFile(*pdlFile)
		if err != nil {
			return err
		}
		opts.PDL = string(pdlSrc)
		opts.PDLFilename = *pdlFile
	}
	compiled, err := core.Compile(opts)
	if err != nil {
		return err
	}

	var loadMode flexload.Mode
	switch *mode {
	case "closed":
		loadMode = flexload.Closed
	case "open":
		loadMode = flexload.Open
	default:
		return fmt.Errorf("load: unknown mode %q (want closed or open)", *mode)
	}

	op := &compiled.Iface.Ops[0]
	if *opName != "" {
		op = nil
		for i := range compiled.Iface.Ops {
			if compiled.Iface.Ops[i].Name == *opName {
				op = &compiled.Iface.Ops[i]
				break
			}
		}
		if op == nil {
			return fmt.Errorf("load: operation %q not in interface", *opName)
		}
	}

	// Multi-process: this process only runs the server; re-exec'd
	// workers generate the load and stream WireReports back.
	if *procs > 1 {
		if *addr != "" {
			return fmt.Errorf("load: -procs and -addr are mutually exclusive (workers dial the parent's server)")
		}
		srv, serverStats, err := buildLoadServer(compiled, *workers, *conns)
		if err != nil {
			return err
		}
		if *netpollOn {
			srv.SetNetpoll(true)
		}
		dir, err := os.MkdirTemp("", "flexload")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		sock := filepath.Join(dir, "s.sock")
		ln, err := net.Listen("unix", sock)
		if err != nil {
			return err
		}
		go func() { _ = srv.Serve(ln) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Drain(ctx)
		}()

		passthrough := []string{
			"-frontend", *frontend,
			"-op", op.Name,
			"-mode", *mode,
			"-think", think.String(),
			"-warmup", warmup.String(),
			"-measure", measure.String(),
			"-cooldown", cooldown.String(),
			"-payload", strconv.Itoa(*payload),
			"-slo", slo.String(),
			"-seed", strconv.FormatInt(*seed, 10),
		}
		if *ifaceName != "" {
			passthrough = append(passthrough, "-interface", *ifaceName)
		}
		if *pdlFile != "" {
			passthrough = append(passthrough, "-pdl", *pdlFile)
		}
		if *style != "" {
			passthrough = append(passthrough, "-style", *style)
		}
		rep, err := runLoadWorkers(*procs, *conns, *rate, passthrough, sock, fs.Arg(0))
		if err != nil {
			return err
		}
		rep.Sheds = serverStats.Snapshot().Sheds
		return emitLoad(stdout, rep, *wire, *jsonOut, *check)
	}

	// Default handlers make any compiled interface drivable; the
	// request body is pre-marshaled once.
	plan, err := frt.NewPlan(compiled.Pres, frt.XDRCodec, nil)
	if err != nil {
		return err
	}
	var callArgs []frt.Value
	for j := range op.Params {
		prm := &op.Params[j]
		v := frt.ZeroValue(prm.Type)
		if prm.Type.Kind == ir.Bytes && *payload > 0 && (prm.Dir == ir.In || prm.Dir == ir.InOut) {
			v = make([]byte, *payload)
		}
		callArgs = append(callArgs, v)
	}
	opIdx := plan.OpIndex(op.Name)
	enc := frt.XDRCodec.NewEncoder()
	if err := plan.Ops[opIdx].EncodeRequest(enc, callArgs); err != nil {
		return err
	}
	req := enc.Bytes()

	var (
		dial        func(id int) (frt.Conn, error)
		serverStats *stats.Endpoint
	)
	switch {
	case *addr != "":
		// Worker mode (or any external server): every client dials the
		// given address; the server's shed counter is not visible here.
		network, address, ok := strings.Cut(*addr, ":")
		if !ok {
			return fmt.Errorf("load: -addr wants network:address, got %q", *addr)
		}
		dial = func(id int) (frt.Conn, error) {
			nc, err := net.Dial(network, address)
			if err != nil {
				return nil, err
			}
			return suntcp.Dial(nc, compiled.Pres), nil
		}
	case *netpollOn:
		// Event-driven server runtime needs real descriptors: serve on
		// a unix socket instead of in-memory pipes.
		srv, ss, err := buildLoadServer(compiled, *workers, *conns)
		if err != nil {
			return err
		}
		serverStats = ss
		srv.SetNetpoll(true)
		dir, err := os.MkdirTemp("", "flexload")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		sock := filepath.Join(dir, "s.sock")
		ln, err := net.Listen("unix", sock)
		if err != nil {
			return err
		}
		go func() { _ = srv.Serve(ln) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Drain(ctx)
		}()
		dial = func(id int) (frt.Conn, error) {
			nc, err := net.Dial("unix", sock)
			if err != nil {
				return nil, err
			}
			return suntcp.Dial(nc, compiled.Pres), nil
		}
	default:
		srv, ss, err := buildLoadServer(compiled, *workers, *conns)
		if err != nil {
			return err
		}
		serverStats = ss
		dial = func(id int) (frt.Conn, error) {
			cc, sc := netsim.BufferedPipe(netsim.LinkParams{}, 64)
			go func() { _ = srv.ServeConn(sc) }()
			return suntcp.Dial(cc, compiled.Pres), nil
		}
	}

	rep, err := flexload.Run(flexload.Target{
		Dial:    dial,
		Pres:    compiled.Pres,
		Op:      op.Name,
		Request: req,
	}, flexload.Options{
		Clients:      *conns,
		Mode:         loadMode,
		Rate:         *rate,
		Think:        *think,
		Warmup:       *warmup,
		Measure:      *measure,
		Cooldown:     *cooldown,
		Seed:         *seed,
		ClientIDBase: *clientBase,
		Robust:       &frt.RobustOptions{AtMostOnce: true},
		ServerStats:  serverStats,
		SLO:          *slo,
	})
	if err != nil {
		return err
	}
	return emitLoad(stdout, rep, *wire, *jsonOut, *check)
}

// buildLoadServer compiles the default-handler dispatcher into a
// shared-pool Sun RPC server sized for conns clients.
func buildLoadServer(compiled *core.Compiled, workers, conns int) (*sunrpc.Server, *stats.Endpoint, error) {
	disp := frt.NewDispatcher(compiled.Pres)
	for i := range compiled.Iface.Ops {
		op := &compiled.Iface.Ops[i]
		disp.Handle(op.Name, func(c *frt.Call) error {
			for j := range op.Params {
				prm := &op.Params[j]
				if prm.Dir == ir.Out || prm.Dir == ir.InOut {
					c.SetOut(j, frt.ZeroValue(prm.Type))
				}
			}
			if op.HasResult() {
				c.SetResult(frt.ZeroValue(op.Result))
			}
			return nil
		})
	}
	plan, err := disp.Plan(frt.XDRCodec)
	if err != nil {
		return nil, nil, err
	}
	serverStats := stats.New(nil)
	cacheCap := 2 * conns
	if cacheCap < frt.DefaultReplyCacheSize {
		cacheCap = frt.DefaultReplyCacheSize
	}
	sess := frt.NewSessionServer(disp, plan, frt.NewReplyCacheSharded(cacheCap, 64))
	srv := suntcp.NewSessionServer(sess, compiled.Pres.Interface)
	srv.SetConcurrency(workers)
	srv.SetStats(serverStats)
	return srv, serverStats, nil
}

// runLoadWorkers forks procs copies of this binary in load-worker
// mode, each driving its share of the connections against the unix
// socket, and merges the WireReports they emit on their stdout pipes.
func runLoadWorkers(procs, conns int, rate float64, passthrough []string, sock, idlPath string) (*flexload.Report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	type result struct {
		out []byte
		err error
	}
	results := make([]result, procs)
	var wg sync.WaitGroup
	base := 0
	for i := 0; i < procs; i++ {
		share := conns / procs
		if i < conns%procs {
			share++
		}
		if share == 0 {
			continue
		}
		args := append([]string{"load"}, passthrough...)
		args = append(args,
			"-conns", strconv.Itoa(share),
			"-rate", strconv.FormatFloat(rate/float64(procs), 'g', -1, 64),
			"-client-base", strconv.Itoa(base),
			"-addr", "unix:"+sock,
			"-wire",
			idlPath)
		base += share
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), loadWorkerEnv+"=1")
		cmd.Stderr = os.Stderr
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := cmd.Output()
			results[i] = result{out, err}
		}(i)
	}
	wg.Wait()

	var ws []*flexload.WireReport
	for i, r := range results {
		if r.out == nil && r.err == nil {
			continue // zero-share slot
		}
		if r.err != nil {
			return nil, fmt.Errorf("load: worker %d: %w", i, r.err)
		}
		var w flexload.WireReport
		if err := json.Unmarshal(r.out, &w); err != nil {
			return nil, fmt.Errorf("load: worker %d report: %w", i, err)
		}
		ws = append(ws, &w)
	}
	return flexload.CombineWire(ws)
}

// emitLoad renders the report and applies the -check gate.
func emitLoad(stdout io.Writer, rep *flexload.Report, wire, jsonOut, check bool) error {
	switch {
	case wire:
		b, err := json.Marshal(rep.Wire())
		if err != nil {
			return err
		}
		if _, err := stdout.Write(append(b, '\n')); err != nil {
			return err
		}
	case jsonOut:
		if _, err := stdout.Write(rep.JSON()); err != nil {
			return err
		}
	default:
		fmt.Fprint(stdout, rep.Text())
	}
	if check {
		if rep.GoodputPerSec <= 0 {
			return findings(fmt.Errorf("load check: zero goodput (%d completed of %d issued)", rep.Completed, rep.Issued))
		}
		if rep.Errors != 0 {
			return findings(fmt.Errorf("load check: %d calls failed the error taxonomy (errors+timeouts) out of %d issued", rep.Errors, rep.Issued))
		}
	}
	return nil
}
