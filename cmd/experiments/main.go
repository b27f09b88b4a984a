// Command experiments regenerates every figure of the paper's
// evaluation (§4) and prints rows shaped like the original, with the
// paper's reported numbers quoted for comparison. Each figure's claims
// are checked against the numbers it just measured; a false claim is
// printed and the command exits non-zero.
//
//	go run ./cmd/experiments            # all figures
//	go run ./cmd/experiments -fig 6     # one figure (2, 6, 7, 10, 11, 12, ports, marshal, faults, scale, shm, overload, c10k)
//	go run ./cmd/experiments -quick     # smaller workloads, noisier
//	go run ./cmd/experiments -csv       # machine-readable rows
//	go run ./cmd/experiments -json      # also write BENCH_<fig>.json per figure
//
// The figures, their names above and everything printed come from the
// registry in internal/experiments (DESIGN.md "Figures as data").
// BENCH_<fig>.json is schema 2: numeric cells with units, the claims
// and their verdicts, and the commit, toolchain and host that produced
// them; build the binary (go build) rather than go run it from a dirty
// tree if the commit field matters.
//
// Absolute numbers are modern-Go numbers; the reproduction target is
// the shape of each comparison — which presentation wins and by
// roughly what factor. See EXPERIMENTS.md for recorded results and
// the paper-vs-measured discussion.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"flexrpc/internal/experiments"
)

func main() {
	names := experiments.Names(experiments.Figures)
	var (
		fig     = flag.String("fig", "all", "figure to run: "+names+" or all")
		quick   = flag.Bool("quick", false, "smaller workloads (faster, noisier)")
		csv     = flag.Bool("csv", false, "emit comma-separated rows instead of aligned tables")
		jsonOut = flag.Bool("json", false, "also write BENCH_<fig>.json per figure (schema 2: numeric cells with units, claim verdicts, provenance)")
	)
	flag.Parse()
	jsonDir := ""
	if *jsonOut {
		jsonDir = "."
	}
	size := experiments.Full
	if *quick {
		size = experiments.Quick
	}
	if err := run(experiments.Figures, *fig, size, *csv, jsonDir, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the selected figures of figs at the given size, printing
// each table to stdout and, when jsonDir is set, writing its BENCH file
// there. A figure that cannot measure stops the run; a false claim does
// not — every figure still prints and records its verdicts — but makes
// the returned error non-nil (errors.Is experiments.ErrFalseClaim).
func run(figs []*experiments.Figure, fig string, size experiments.Size, csv bool, jsonDir string, stdout io.Writer) error {
	selected, err := experiments.Select(figs, fig)
	if err != nil {
		return err
	}
	prov := experiments.NewProvenance()
	var failed []error
	for _, f := range selected {
		rep, err := f.Execute(size)
		if err != nil {
			return err
		}
		if csv {
			fmt.Fprint(stdout, rep.CSV(), "\n")
		} else {
			fmt.Fprint(stdout, rep.Format(), "\n")
		}
		if jsonDir != "" {
			if err := rep.WriteJSON(jsonDir, prov); err != nil {
				return err
			}
		}
		failed = append(failed, rep.Err())
	}
	return errors.Join(failed...)
}
