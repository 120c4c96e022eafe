// Package sweep runs one-parameter sensitivity analyses over a
// (model, configuration) pair: how does the estimated execution time
// react to the package size, the protocol's per-package header cost,
// the CA's chain set-up cost, or one clock frequency?
//
// The paper's discussion reasons qualitatively about exactly these
// levers ("the higher the data package, the less impact of these
// figures"); this package turns the reasoning into measured curves a
// designer can read off, each point produced by a full emulation,
// evaluated concurrently.
package sweep

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"segbus/internal/emulator"
	"segbus/internal/emulator/pool"
	"segbus/internal/obs"
	"segbus/internal/parallel"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// Point is one sample of a sensitivity curve.
type Point struct {
	Value  int64 // the parameter value of this sample
	ExecPs int64 // estimated execution time
	Err    error // non-nil if this sample failed (others still run)
}

// Curve is a named series of points.
type Curve struct {
	Param  string
	Points []Point
}

// Options tunes a sweep evaluation. The sweep functions take it
// variadically so existing call sites stay unchanged.
type Options struct {
	// Heartbeat, when non-nil, receives a progress tick after every
	// completed sample (from worker goroutines — Heartbeat.Tick is
	// concurrency-safe) and the unconditional final line.
	Heartbeat *obs.Heartbeat

	// Workers is the number of concurrent samples; zero selects
	// GOMAXPROCS.
	Workers int

	// Seed drives the work-stealing schedule (see
	// parallel.StealOptions.Seed); the curve itself is schedule
	// independent.
	Seed int64
}

// first collapses the variadic options to one value.
func first(opts []Options) Options {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options{}
}

// curve evaluates n variants of base concurrently, on the
// work-stealing scheduler with pooled machines: every variant of one
// curve shares a platform shape, so after the first sample each
// worker's emulations run on a warm arena. vary sets the swept field
// of variant i's clone of base and returns the value it set.
//
// A sweep's cost is dominated by its costliest point (at package size
// 1 a 16-frame MP3 sweep spends over a third of its serial work on that
// one sample), so the variants are dispatched costliest first: started
// last, that point serialises the tail of the whole curve. Each variant
// is priced by its package count before any emulation runs (see
// dispatchOrder).
func curve(m *psdf.Model, base *platform.Platform, param string, n int, o Options, vary func(p *platform.Platform, i int) int64) Curve {
	machines := pool.ForWorkers(o.Workers)
	model := sched.CheckModel(m) // once per curve, not once per point
	c := Curve{Param: param, Points: make([]Point, n)}
	variants := make([]*platform.Platform, n)
	prices := make([]int64, n)
	flows := m.Flows()
	for i := range variants {
		variants[i] = base.Clone()
		c.Points[i].Value = vary(variants[i], i)
		prices[i] = packageCount(flows, variants[i].PackageSize)
	}
	order := dispatchOrder(prices)
	var done, failed atomic.Int64
	parallel.StealRun(n, parallel.StealOptions{Workers: o.Workers, Seed: o.Seed}, func(j int) {
		i := order[j]
		pt := &c.Points[i]
		r, err := machines.Run(model.Pair(variants[i]), emulator.Config{}, nil)
		if err != nil {
			pt.Err = err
			failed.Add(1)
		} else {
			pt.ExecPs = int64(r.ExecutionTimePs)
		}
		o.Heartbeat.Tick(int(done.Add(1)), int(failed.Load()))
	})
	o.Heartbeat.Final(n, int(failed.Load()))
	return c
}

// packageCount prices one variant: the packages m's flows split into
// at package size s, Σ ⌈items/s⌉, which tracks the emulation's event
// count without extracting a schedule. A non-positive size prices at
// zero; its emulation fails validation before doing any work.
func packageCount(flows []psdf.Flow, s int) int64 {
	if s <= 0 {
		return 0
	}
	var n int64
	for _, f := range flows {
		n += int64(f.Packages(s))
	}
	return n
}

// dispatchOrder maps StealRun's task indices to variants so that the
// costliest variants run first: order[j] is the variant task j
// evaluates. StealRun deals indices round-robin and each worker pops
// its deque from the tail, so the variants are laid out by ascending
// price — the w costliest then sit at the last w indices, one at the
// tail of each worker's deque, and every worker works through its
// share costliest first, whatever the worker count. A thief also takes
// a victim's tail, so an idle worker picks up the costliest variant
// still queued rather than leaving it to run alone at the end. Equal
// prices are laid out in reverse input order, so they are dispatched
// in input order.
func dispatchOrder(prices []int64) []int {
	order := make([]int, len(prices))
	for j := range order {
		order[j] = len(order) - 1 - j
	}
	sort.SliceStable(order, func(a, b int) bool { return prices[order[a]] < prices[order[b]] })
	return order
}

// PackageSizes sweeps the platform package size.
func PackageSizes(m *psdf.Model, base *platform.Platform, sizes []int, opts ...Options) Curve {
	return curve(m, base, "packageSize", len(sizes), first(opts), func(p *platform.Platform, i int) int64 {
		p.PackageSize = sizes[i]
		return int64(sizes[i])
	})
}

// HeaderTicks sweeps the per-package protocol overhead.
func HeaderTicks(m *psdf.Model, base *platform.Platform, ticks []int, opts ...Options) Curve {
	return curve(m, base, "headerTicks", len(ticks), first(opts), func(p *platform.Platform, i int) int64 {
		p.HeaderTicks = ticks[i]
		return int64(ticks[i])
	})
}

// CAHopTicks sweeps the central arbiter's chain set-up cost.
func CAHopTicks(m *psdf.Model, base *platform.Platform, ticks []int, opts ...Options) Curve {
	return curve(m, base, "caHopTicks", len(ticks), first(opts), func(p *platform.Platform, i int) int64 {
		p.CAHopTicks = ticks[i]
		return int64(ticks[i])
	})
}

// SegmentClock sweeps one segment's clock frequency (1-based index).
func SegmentClock(m *psdf.Model, base *platform.Platform, segment int, clocks []platform.Hz, opts ...Options) (Curve, error) {
	if base.Segment(segment) == nil {
		return Curve{}, fmt.Errorf("sweep: no segment %d", segment)
	}
	param := fmt.Sprintf("segment%dClockHz", segment)
	return curve(m, base, param, len(clocks), first(opts), func(p *platform.Platform, i int) int64 {
		p.Segment(segment).Clock = clocks[i]
		return int64(clocks[i])
	}), nil
}

// CSV renders the curve as two-column CSV (value, exec_us); failed
// points render an empty second column.
func (c Curve) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s,exec_us\n", c.Param)
	for _, pt := range c.Points {
		if pt.Err != nil {
			fmt.Fprintf(&b, "%d,\n", pt.Value)
			continue
		}
		fmt.Fprintf(&b, "%d,%.3f\n", pt.Value, float64(pt.ExecPs)/1e6)
	}
	return b.String()
}

// Table renders the curve as fixed-width text.
func (c Curve) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s\n", c.Param, "exec (us)")
	for _, pt := range c.Points {
		if pt.Err != nil {
			fmt.Fprintf(&b, "%-18d %12s\n", pt.Value, "error")
			continue
		}
		fmt.Fprintf(&b, "%-18d %12.2f\n", pt.Value, float64(pt.ExecPs)/1e6)
	}
	return b.String()
}
