package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"segbus/internal/apps"
	"segbus/internal/core"
	"segbus/internal/emulator"
	"segbus/internal/explore"
	"segbus/internal/obs"
	"segbus/internal/place"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
	"segbus/internal/serve"
	"segbus/internal/sweep"
)

const (
	// jobSetupReps batches of jobSetupBatch model constructions measure
	// a job workload's set-up, which takes microseconds.
	jobSetupReps  = 21
	jobSetupBatch = 100
	// exploreProbes is how many emulated candidates each traced
	// explore job probes.
	exploreProbes = 16
)

// sweepSizes are the package sizes of the sweep_heavy workload.
var sweepSizes = []int{1, 2, 3, 4, 6, 8, 12, 16}

// jobSpec is what distinguishes the two job workloads.
type jobSpec struct {
	// job runs one operation and reports whether its output passed.
	job func() (bool, error)
	// probeEnumerates makes each probe time a one-point explore.Space
	// too, for a workload whose own path never enumerates.
	probeEnumerates bool
	// shape reports the workload-shape self-checks.
	shape func() (map[string]any, error)
	// traced prepares the traced run on the probe: it returns the work
	// to do after each traced job and the workload's own per-layer
	// values, given the traced loop's median job time.
	traced func(pr *prober) (after func() bool, own func(jobP50 time.Duration) map[string]metric, err error)
}

// runJobs is the loop shared by the job workloads: one job at a time,
// each using cfg.load workers.
func runJobs(cfg config, setup time.Duration, js jobSpec) (*outcome, error) {
	op := func(int) (time.Duration, bool, error) {
		start := time.Now()
		ok, err := js.job()
		return time.Since(start), ok, err
	}
	// One unmeasured job warms the process and fills lazily built state.
	_, warmOK, err := op(0)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	out := &outcome{attempted: 1, context: map[string]any{}}
	if !warmOK {
		out.failed++
	}
	measured := cfg.dur
	if cfg.trace {
		measured = cfg.dur / 2
	}
	st, err := closedLoop(1, measured, op)
	if err != nil {
		return nil, err
	}
	out.attempted += st.ops()
	out.failed += st.failed
	shape, err := js.shape()
	if err != nil {
		return nil, fmt.Errorf("workload shape: %w", err)
	}
	out.context["shape"] = shape
	if !cfg.trace {
		metrics, samples := endToEnd(setup, st)
		out.metrics, out.context["samples"] = metrics, samples
		return out, nil
	}

	live, err := startServer()
	if err != nil {
		return nil, err
	}
	defer live.close()
	pr, err := newProber(live, 1, js.probeEnumerates)
	if err != nil {
		return nil, err
	}
	defer pr.close()
	after, own, err := js.traced(pr)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	before, err := live.counters(c)
	if err != nil {
		return nil, err
	}
	traced, err := closedLoop(1, cfg.dur-measured, func(int) (time.Duration, bool, error) {
		lat, ok, err := op(0)
		if err != nil {
			return 0, false, err
		}
		return lat, after() && ok, nil
	})
	if err != nil {
		return nil, err
	}
	afterCounters, err := live.counters(c)
	if err != nil {
		return nil, err
	}
	out.attempted += traced.ops()
	out.failed += traced.failed

	delta := counterDelta(before, afterCounters)
	metrics := serverRatios(delta, delta[famCacheHits]+delta[famCacheMisses]+delta[famRawHits])
	for k, v := range runtimeMetrics(st) {
		metrics[k] = v
	}
	addTraceOverhead(metrics, st, traced)
	p50, _ := percentile(traced.lat, 50)
	for k, v := range own(p50) {
		metrics[k] = v
	}
	layers, counts, err := layerReport(pr.sm, metrics)
	if err != nil {
		return nil, err
	}
	out.metrics = layers
	out.context["samples"] = map[string]any{
		"untraced_operations": st.ops(),
		"traced_operations":   traced.ops(),
		"per_layer":           counts,
		"probe_skips":         pr.skips.Load(),
	}
	return out, nil
}

// probeBody renders a candidate pair as an /estimate body without its
// closing brace; callers append a detect_ticks field that makes every
// probe a request new to both servers.
func probeBody(m *psdf.Model, plat *platform.Platform) ([]byte, error) {
	psdfXML, psmXML, err := core.Transform(m, plat)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(serve.EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)})
	if err != nil {
		return nil, err
	}
	return b[:len(b)-1], nil
}

// probeSeq numbers the probes of a job workload.
type probeSeq struct{ n int64 }

func (s *probeSeq) body(open []byte) []byte {
	s.n++
	b := append([]byte(nil), open...)
	b = append(b, `,"detect_ticks":`...)
	b = strconv.AppendInt(b, s.n, 10)
	return append(b, '}')
}

// metered runs m on plat on a fresh machine and returns its engine
// event count.
func metered(m *psdf.Model, plat *platform.Platform) (int64, error) {
	reg := obs.NewRegistry()
	if _, err := emulator.Run(m, plat, emulator.Config{Metrics: reg}); err != nil {
		return 0, err
	}
	return reg.Counter(eventsFamily).Value(), nil
}

// frontKey renders a Pareto front for comparison.
func frontKey(r *explore.Result) string {
	var b strings.Builder
	for _, p := range r.FrontPoints() {
		fmt.Fprintf(&b, "%d:%s:%d:%v;", p.Index, p.Label, p.ExecPs, p.TotalPJ)
	}
	return b.String()
}

// runExploreRef: explore.Run over the MP3 reference space with pruning
// on. The bounds stage dominates its CPU; keys and parsing never run.
// The seed drives the explorer's work-stealing schedule: the space is
// fixed, because its pruning ratio is only comparable on itself.
func runExploreRef(cfg config) (*outcome, error) {
	var m *psdf.Model
	var space *explore.Space
	setup, err := timeSetup(jobSetupReps, jobSetupBatch, func() error {
		m = apps.MP3Model()
		space = explore.ReferenceMP3Space()
		return nil
	})
	if err != nil {
		return nil, err
	}
	exhaustive, err := explore.Run(m, space, explore.Options{Workers: cfg.load, NoPrune: true})
	if err != nil {
		return nil, err
	}
	want := frontKey(exhaustive)
	exhaustive = nil
	opts := explore.Options{Workers: cfg.load, Seed: cfg.seed}
	var last *explore.Result
	job := func() (bool, error) {
		res, err := explore.Run(m, space, opts)
		if err != nil {
			return false, nil
		}
		last = res
		return res.Generated == space.Size() && res.Errors == 0 && frontKey(res) == want, nil
	}
	return runJobs(cfg, setup, jobSpec{
		job: job,
		shape: func() (map[string]any, error) {
			shape := map[string]any{
				"generated":     last.Generated,
				"pruned":        last.Pruned,
				"emulated":      last.Emulated,
				"waves":         last.Waves,
				"front_size":    len(last.Front),
				"pruning_ratio": last.PruningRatio,
			}
			if last.Generated != 10240 {
				return shape, fmt.Errorf("reference space generated %d candidates, want 10240", last.Generated)
			}
			return shape, nil
		},
		traced: func(pr *prober) (func() bool, func(time.Duration) map[string]metric, error) {
			res := last
			var emulated []int
			var packages, events int64
			for i := range res.Points {
				pt := &res.Points[i]
				if !pt.Emulated {
					continue
				}
				emulated = append(emulated, i)
				sch, err := sched.Extract(m, pt.Platform.PackageSize)
				if err != nil {
					return nil, nil, err
				}
				packages += int64(sch.TotalPackages())
				ev, err := metered(m, pt.Platform)
				if err != nil {
					return nil, nil, err
				}
				events += ev
			}
			rand.New(rand.NewSource(cfg.seed)).Shuffle(len(emulated), func(i, j int) {
				emulated[i], emulated[j] = emulated[j], emulated[i]
			})
			opens := make([][]byte, len(emulated))
			for k, i := range emulated {
				var err error
				if opens[k], err = probeBody(m, res.Points[i].Platform); err != nil {
					return nil, nil, err
				}
			}
			cm := m.CommunicationMatrix()
			var seq probeSeq
			next := 0
			after := func() bool {
				start := time.Now()
				_, err := space.Enumerate(m)
				pr.sm.add("explore.enumerate_ms", usOf(time.Since(start))/1e3)
				if err != nil {
					pr.fail("enumerate", err)
					return false
				}
				for _, segs := range space.Segments {
					start := time.Now()
					_, err := place.Solve(cm, segs, place.Options{})
					pr.sm.add("place.solve_ms", usOf(time.Since(start))/1e3)
					if err != nil {
						pr.fail("solve", err)
						return false
					}
				}
				ok := true
				for k := 0; k < exploreProbes; k++ {
					_, pok := pr.probe(0, seq.body(opens[next%len(opens)]), pathOffline)
					next++
					ok = ok && pok
				}
				return ok
			}
			own := func(jobP50 time.Duration) map[string]metric {
				med := func(n string) float64 { v, _ := pr.sm.median(n); return v }
				perCandidate := med("analyze.bounds_us") + med("power.profile_us")
				perEmulation := med("emulator.validate_us") + med("sched.extract_us") + med("emulator.run_us") + med("power.estimate_us")
				serial := med("explore.enumerate_ms")*1e3 + float64(res.Generated)*perCandidate + float64(res.Emulated)*perEmulation
				return map[string]metric{
					"explore.generated":     {float64(res.Generated), "count"},
					"explore.pruned":        {float64(res.Pruned), "count"},
					"explore.emulated":      {float64(res.Emulated), "count"},
					"explore.waves":         {float64(res.Waves), "count"},
					"explore.pruning_ratio": {res.PruningRatio, "ratio"},
					"sched.packages_per_op": {float64(packages), "count"},
					"engine.events_per_op":  {float64(events), "count"},
					"trace.coverage_ratio":  {serial / (usOf(jobP50) * float64(cfg.load)), "ratio"},
				}
			}
			return after, own, nil
		},
	})
}

// runSweepHeavy: sweep.PackageSizes over 16 back-to-back MP3 frames on
// the paper's three-segment platform. Priming and event dispatch on
// pooled machines dominate; no bounds, keys or parsing run. The seed
// drives the sweep's work-stealing schedule.
func runSweepHeavy(cfg config) (*outcome, error) {
	var m *psdf.Model
	var base *platform.Platform
	setup, err := timeSetup(jobSetupReps, jobSetupBatch, func() error {
		var err error
		m, err = psdf.Repeat(apps.MP3Model(), 16)
		base = apps.MP3Platform3(apps.MP3PackageSize)
		return err
	})
	if err != nil {
		return nil, err
	}
	points := make([]*platform.Platform, len(sweepSizes))
	want := make([]int64, len(sweepSizes))
	var packages, events int64
	for i, s := range sweepSizes {
		points[i] = base.Clone()
		points[i].PackageSize = s
		rep, err := emulator.Run(m, points[i], emulator.Config{})
		if err != nil {
			return nil, err
		}
		want[i] = int64(rep.ExecutionTimePs)
		sch, err := sched.Extract(m, s)
		if err != nil {
			return nil, err
		}
		packages += int64(sch.TotalPackages())
	}
	opts := sweep.Options{Workers: cfg.load, Seed: cfg.seed}
	job := func() (bool, error) {
		c := sweep.PackageSizes(m, base, sweepSizes, opts)
		if len(c.Points) != len(sweepSizes) {
			return false, nil
		}
		for i, p := range c.Points {
			if p.Err != nil || p.Value != int64(sweepSizes[i]) || p.ExecPs != want[i] {
				return false, nil
			}
		}
		return true, nil
	}
	return runJobs(cfg, setup, jobSpec{
		job:             job,
		probeEnumerates: true,
		shape: func() (map[string]any, error) {
			shape := map[string]any{"points": len(sweepSizes), "packages_per_sweep": packages}
			if packages != 325440 {
				return shape, fmt.Errorf("sweep moves %d packages, want 325440", packages)
			}
			return shape, nil
		},
		traced: func(pr *prober) (func() bool, func(time.Duration) map[string]metric, error) {
			opens := make([][]byte, len(points))
			for i, p := range points {
				ev, err := metered(m, p)
				if err != nil {
					return nil, nil, err
				}
				events += ev
				if opens[i], err = probeBody(m, p); err != nil {
					return nil, nil, err
				}
			}
			perPoint := make([][]float64, len(points))
			var seq probeSeq
			after := func() bool {
				ok := true
				for i := range points {
					res, pok := pr.probe(0, seq.body(opens[i]), pathOffline)
					if pok {
						perPoint[i] = append(perPoint[i], res.emuUs)
					}
					ok = ok && pok
				}
				return ok
			}
			own := func(jobP50 time.Duration) map[string]metric {
				serial := 0.0
				for _, v := range perPoint {
					serial += medianOf(v)
				}
				own := map[string]metric{
					"sched.packages_per_op": {float64(packages), "count"},
					"engine.events_per_op":  {float64(events), "count"},
					"trace.coverage_ratio":  {serial / (usOf(jobP50) * float64(cfg.load)), "ratio"},
				}
				for k, v := range noExploration {
					own[k] = v
				}
				return own
			}
			return after, own, nil
		},
	})
}
