package experiments

import (
	"math"
	"runtime"
	"time"
)

// Trials is how many times each measurement is repeated; the best
// (minimum) value is reported, the standard technique for scheduling
// noise on a time-shared machine.
const Trials = 5

// bestOf runs fn trials times and returns the minimum duration, or the
// first error.
func bestOf(trials int, fn func() (time.Duration, error)) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < trials; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		best = min(best, d)
	}
	return best, nil
}

// mbps converts (bytes, duration) to MB/s.
func mbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}

// pctDelta is v's change against base in percent, NaN without a base.
func pctDelta(base, v float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return (v/base - 1) * 100
}

// uniprocessor pins the scheduler to one CPU for the duration of a
// micro-experiment, matching the paper's uniprocessor HP730 and
// removing cross-CPU wakeup noise from the rendezvous path. The
// returned function restores the previous setting.
func uniprocessor() func() {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// opCost is one operation's cost in benchmark units.
type opCost struct{ ns, allocs, bytes float64 }

// timeOps runs op iters times per trial and reports the best trial's
// ns/op with the last trial's allocations. before, when set, runs at
// the start of every trial (the glue timers reset there).
func timeOps(op func() error, iters int, before func()) (opCost, error) {
	var c opCost
	d, err := bestOf(Trials, func() (d time.Duration, err error) {
		d, c, err = timeTrial(op, iters, before)
		return d, err
	})
	c.ns = float64(d.Nanoseconds()) / float64(iters)
	return c, err
}

// timeTrial is one trial of timeOps: its duration and op's cost in it.
// It starts from a collected heap so one cell's garbage is not billed
// to the next.
func timeTrial(op func() error, iters int, before func()) (time.Duration, opCost, error) {
	var m0, m1 runtime.MemStats
	if before != nil {
		before()
	}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := op(); err != nil {
			return 0, opCost{}, err
		}
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(iters)
	return d, opCost{
		ns:     float64(d.Nanoseconds()) / n,
		allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}, nil
}

// timeSystem assembles one system, times it and tears it down.
func timeSystem(build Build, iters int, before func()) (opCost, error) {
	op, closeFn, err := build()
	if err != nil {
		return opCost{}, err
	}
	defer closeFn()
	return timeOps(op, iters, before)
}

// timeSystems times each of builds' systems as timeSystem does, over
// trials trials, but takes the trials in turn, one of each system and
// then the next, so a stretch of host noise falls on every system alike
// instead of on whichever one was being timed while it lasted.
func timeSystems(builds []Build, iters, trials int) ([]opCost, error) {
	ops := make([]func() error, len(builds))
	for i, build := range builds {
		op, closeFn, err := build()
		if err != nil {
			return nil, err
		}
		defer closeFn()
		ops[i] = op
	}
	costs := make([]opCost, len(ops))
	for t := 0; t < trials; t++ {
		for i, op := range ops {
			_, c, err := timeTrial(op, iters, nil)
			if err != nil {
				return nil, err
			}
			if t > 0 {
				c.ns = min(c.ns, costs[i].ns)
			}
			costs[i] = c
		}
	}
	return costs, nil
}
