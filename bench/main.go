// Command bench is the repository benchmark: four closed-loop workloads
// over the same-domain, shared-memory and loopback-TCP paths, measured
// end to end with no instrumentation, plus a separate traced pass that
// attaches a number to each layer from outside. See README.md for every
// metric name; BENCHMARK.json at the repository root is the contract a
// driver runs it under.
//
//	bash bench/run.sh                    every workload, both passes
//	bash bench/run.sh -workload tcp_pool -trace 0
//	bash bench/run.sh -aa                the whole set twice, compared against the bounds
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// A metricDef names one reported number. bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// carry none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// Seeds. Development and the committed baseline use defaultSeed; a
// performance claim must also hold on heldOutSeed, which nothing in
// this repository was tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 20260927
)

// runSeconds is the measured time of one run, as BENCHMARK.json fixes it.
const runSeconds = 20

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"calls_per_s", "1/s", "higher", 0.25},
	{"call_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_call", "us", "lower", 0.25},
	{"allocs_per_call", "count", "lower", 0.02},
	{"alloc_bytes_per_call", "B", "lower", 0.15},
	{"rss_mb", "MB", "lower", 0.15},
}

var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	var d []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{name: n, unit: unit, better: better})
		}
	}
	for _, op := range []string{"nop", "put"} {
		for _, s := range stageNames {
			add("ns", "lower", s+"."+op+"_ns")
		}
		add("ns", "lower", "trace.residual."+op+"_ns")
		add("%", "lower", "trace.residual."+op+"_pct")
	}
	add("count", "lower", "trace.incomplete_per_call",
		"net.client.writes_per_call", "net.client.reads_per_call",
		"net.server.writes_per_call", "net.server.reads_per_call")
	add("B", "lower", "net.wire_bytes_per_call")
	add("ratio", "higher", "net.payload_share")
	add("B", "lower", "runtime.plan.copied_bytes_per_call", "runtime.plan.alloced_bytes_per_call")
	add("count", "higher", "sunrpc.server.records_per_flush")
	add("count", "lower", "netpoll.wakeups_per_call", "netpoll.partial_reads_per_call",
		"runtime.session.retries_per_call", "runtime.session.replays_per_call",
		"runtime.replycache.contention_per_call")
	add("count", "lower", "go.gc_cycles")
	add("ms", "lower", "go.gc_pause_ms")
	add("count", "lower", "go.goroutines")
	add("us", "lower", "call_p99_us", "call_p999_us")

	add("us", "lower", "core.compile_us", "runtime.plan.bind_us", "inproc.connect_us",
		"shmring.connect_us", "suntcp.dial_first_call_us")
	for _, dir := range []string{"encode_req", "decode_req", "encode_rep", "decode_rep"} {
		for _, op := range opNames {
			add("ns", "lower", "runtime.plan."+dir+"."+op+"_ns")
		}
	}
	add("ns", "lower", "xdr.getattr_roundtrip_ns", "cdr.getattr_roundtrip_ns",
		"runtime.session.loopback_ns", "runtime.dispatcher.serve_null_ns")
	add("us", "lower", "sunrpc.serial.null_rtt_us", "sunrpc.pool.null_rtt_us",
		"sunrpc.netpoll.null_rtt_us", "net.loopback_rtt_us")
	add("ns", "lower", "inproc.null_ns", "shmring.inline.null_ns", "shmring.doorbell.null_ns",
		"shmring.doorbell_untrusted.null_ns", "stats.on_overhead_ns")
	for _, op := range opNames {
		add("us", "lower", "mix."+op+".p50_us")
	}
	add("%", "lower", "bench.trace_overhead_pct")
	add("ns", "lower", "bench.timer_overhead_ns")
	add("%", "lower", "bench.window_spread_pct")
	add("us", "lower", "bench.contention_us")
	add("count", "higher", "bench.samples")
	return d
}

func metricUnit(name string) string {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared in main.go")
}

// manifest renders BENCHMARK.json from the tables above, so the names a
// run prints and the names the contract lists cannot drift apart.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type e2e struct {
		layer
		Bound float64 `json:"bound"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEndDefs {
		m.EndToEnd = append(m.EndToEnd, e2e{layer{d.name, d.unit, d.better}, d.bound})
	}
	for _, d := range perLayerDefs {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	return append(out, '\n'), err
}

// provenance says what produced a set of numbers.
type provenance struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Date       string  `json:"date"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Network    string  `json:"network"`
}

func newProvenance(seed int64, seconds float64) provenance {
	p := provenance{
		Commit: "unknown", Go: goruntime.Version(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		NProc: goruntime.NumCPU(), Kernel: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
		Seed: seed, Seconds: seconds,
		Network: "host loopback (127.0.0.1), not a link",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	return p
}

func (p provenance) print() {
	fmt.Printf("# commit %s  %s  GOMAXPROCS %d  nproc %d  kernel %s\n", p.Commit, p.Go, p.GOMAXPROCS, p.NProc, p.Kernel)
	fmt.Printf("# date %s  seed %d  seconds %g  network: %s\n", p.Date, p.Seed, p.Seconds, p.Network)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload in this process (default: each in a child process)")
		seed         = flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed; %d is held out for claims", heldOutSeed))
		seconds      = flag.Float64("seconds", runSeconds, "measured seconds per run")
		trace        = flag.Int("trace", 0, "with -workload: 0 end-to-end metrics, 1 the traced per-layer pass")
		aa           = flag.Bool("aa", false, "run the end-to-end set twice and compare against the bounds")
		asJSON       = flag.Bool("json", false, "print one JSON document instead of text")
		outDir       = flag.String("out", "bench/out", "directory for the sampled trace spans")
		printMan     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *printMan {
		out, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		return
	}
	if *seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		os.Exit(runOne(w, *seed, *seconds, *trace == 1, *outDir))
	}
	os.Exit(runAll(*seed, *seconds, *aa, *asJSON, *outDir))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne measures one workload in this process and prints its metrics
// by name, then the result object as the last line.
func runOne(w *workload, seed int64, seconds float64, traced bool, outDir string) int {
	newProvenance(seed, seconds).print()
	fmt.Printf("# workload %s: %s\n# path: %s; %d caller(s), closed loop, mix nop/put/fetch/getattr %v%%, payload %d B, timed unit %d call(s)\n",
		w.name, w.why, w.path, w.callers, w.mix, w.payload, w.block)
	r := &run{w: w, in: newInputs(seed, w.mix, w.payload), seconds: seconds, outDir: outDir,
		res: result{Metrics: map[string]value{}}}
	var err error
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
		err = r.perLayer()
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", w.name+":", err)
		return 1
	}
	for _, d := range defs {
		fmt.Printf("%-44s %16.6g %s\n", d.name, r.res.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("%-44s %16d\n%-44s %16d\n", "attempted", r.res.Attempted, "failed", r.res.Failed)
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "bench:", w.name+": check failed:", e)
	}
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.res.Correct {
		return 1
	}
	return 0
}

// child runs one workload in its own process and returns its result.
// The child's text goes to our stderr so stdout stays the report.
func child(w *workload, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", tr, "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", w.name, err)
	}
	return &res, nil
}

// runAll runs every workload, each pass in a child process of its own.
func runAll(seed int64, seconds float64, aa, asJSON bool, outDir string) int {
	prov := newProvenance(seed, seconds)
	if !asJSON {
		prov.print()
	}
	type row struct {
		Workload string             `json:"workload"`
		Result   map[string]*result `json:"passes"`
	}
	var rows []row
	failed := false
	passes := []string{"end_to_end", "per_layer"}
	if aa {
		passes = []string{"a", "b"}
	}
	for _, w := range workloads {
		rw := row{Workload: w.name, Result: map[string]*result{}}
		for _, pass := range passes {
			res, err := child(w, seed, seconds, pass == "per_layer", outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			rw.Result[pass] = res
			if !res.Correct {
				failed = true
			}
			if asJSON {
				continue
			}
			fmt.Printf("\n== %s / %s: attempted %d, failed %d\n", w.name, pass, res.Attempted, res.Failed)
			names := make([]string, 0, len(res.Metrics))
			for n := range res.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("%-44s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
			}
		}
		rows = append(rows, rw)
	}
	if aa {
		fmt.Printf("\n== A/A: how much worse run b read than run a, against each metric's bound\n")
		for _, rw := range rows {
			for _, d := range endToEndDefs {
				a, b := rw.Result["a"].Metrics[d.name].Value, rw.Result["b"].Metrics[d.name].Value
				worse := (b - a) / a
				if d.better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				if worse > d.bound || -worse > d.bound {
					verdict = "OUTSIDE"
					failed = true
				}
				fmt.Printf("%-12s %-18s a %14.6g  b %14.6g  %+7.2f%% against a bound of %2.0f%%  %s\n",
					rw.Workload, d.name, a, b, worse*100, d.bound*100, verdict)
			}
		}
	}
	if asJSON {
		doc := struct {
			Provenance provenance `json:"provenance"`
			Workloads  []row      `json:"workloads"`
		}{prov, rows}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(out))
	}
	if failed {
		return 1
	}
	return 0
}
