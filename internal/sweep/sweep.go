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
	"strings"
	"sync/atomic"

	"segbus/internal/emulator"
	"segbus/internal/emulator/pool"
	"segbus/internal/obs"
	"segbus/internal/parallel"
	"segbus/internal/platform"
	"segbus/internal/psdf"
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
// worker's emulations run on a warm arena, and a straggler (small
// package sizes cost the most) no longer serialises the tail. vary
// sets the swept field of variant i's clone of base and returns the
// value it set.
func curve(m *psdf.Model, base *platform.Platform, param string, n int, o Options, vary func(p *platform.Platform, i int) int64) Curve {
	machines := pool.ForWorkers(o.Workers)
	c := Curve{Param: param, Points: make([]Point, n)}
	var done, failed atomic.Int64
	parallel.StealRun(n, parallel.StealOptions{Workers: o.Workers, Seed: o.Seed}, func(i int) {
		p := base.Clone()
		pt := Point{Value: vary(p, i)}
		r, err := machines.Run(m, p, emulator.Config{})
		if err != nil {
			pt.Err = err
			failed.Add(1)
		} else {
			pt.ExecPs = int64(r.ExecutionTimePs)
		}
		c.Points[i] = pt
		o.Heartbeat.Tick(int(done.Add(1)), int(failed.Load()))
	})
	o.Heartbeat.Final(n, int(failed.Load()))
	return c
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
