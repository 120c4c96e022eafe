package explore

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"segbus/internal/analyze"
	"segbus/internal/emulator"
	"segbus/internal/emulator/pool"
	"segbus/internal/obs"
	"segbus/internal/parallel"
	"segbus/internal/power"
	"segbus/internal/psdf"
)

// DefaultWaveSize is the number of candidates emulated between prune
// passes. It is a fixed constant — deliberately NOT derived from the
// worker count — so the prune/emulate split of a run is a pure
// function of the space, and the obs counters (and with them the
// whole report) stay byte-identical across -workers values.
const DefaultWaveSize = 32

// Options tunes an explorer run.
type Options struct {
	// Workers is the number of concurrent bounds/emulation tasks;
	// zero selects GOMAXPROCS. Changes wall-clock only, never output.
	Workers int

	// Seed drives the work-stealing victim order (schedule
	// reproducibility for profiling; results are schedule
	// independent). Zero selects 1.
	Seed int64

	// WaveSize overrides DefaultWaveSize; <= 0 selects the default.
	WaveSize int

	// NoPrune disables bounds pruning: every candidate is emulated.
	// The soundness tests diff pruned runs against this mode.
	NoPrune bool

	// Params are the energy coefficients (zero selects
	// power.DefaultParams). Pruning and estimation use the same set.
	Params power.Params

	// Registry, when non-nil, receives the obs.ExploreMetrics
	// catalogue.
	Registry *obs.Registry

	// Heartbeat, when non-nil, ticks after every emulated candidate.
	Heartbeat *obs.Heartbeat
}

// StageNs is the wall-clock nanoseconds a candidate (or a whole run)
// spent per pipeline stage. Wall-clock is inherently nondeterministic,
// so stage timings are excluded from every deterministic output path
// (JSON report, tables); they surface through volatile gauges and the
// CLI's -timings stderr dump.
type StageNs struct {
	Bounds  int64 `json:"-"`
	Emulate int64 `json:"-"`
	Power   int64 `json:"-"`
}

// Point is one candidate's full record: analytic bounds (always
// computed), and either a prune verdict or emulation results.
type Point struct {
	Candidate

	// Analytic bounds.
	LowerPs    int64   `json:"lowerPs"`
	UpperPs    int64   `json:"upperPs"`
	EnergyLBPJ float64 `json:"energyLbPj"`

	// Outcome. Exactly one of Pruned / Emulated / Error holds.
	Pruned   bool `json:"pruned,omitempty"`
	Emulated bool `json:"emulated,omitempty"`

	// Emulation results (Emulated only).
	ExecPs     int64   `json:"execPs,omitempty"`
	TotalPJ    float64 `json:"totalPj,omitempty"`
	AvgPowerMW float64 `json:"avgPowerMw,omitempty"`

	Err   error   `json:"-"`
	Error string  `json:"error,omitempty"`
	Stage StageNs `json:"-"`
}

// Result is one explorer run. Points holds every candidate in
// enumeration order; Front holds the indices of the Pareto-optimal
// emulated points, sorted by (ExecPs, TotalPJ, Index).
type Result struct {
	Space  Space   `json:"space"`
	Points []Point `json:"-"`
	Front  []int   `json:"-"`

	Generated int `json:"generated"`
	Pruned    int `json:"pruned"`
	Emulated  int `json:"emulated"`
	Errors    int `json:"errors,omitempty"`
	Waves     int `json:"waves"`

	// PruningRatio = Pruned/Generated.
	PruningRatio float64 `json:"pruningRatio"`

	Timing StageNs `json:"-"`
}

// FrontPoints returns copies of the front's points in front order.
func (r *Result) FrontPoints() []Point {
	out := make([]Point, len(r.Front))
	for i, idx := range r.Front {
		out[i] = r.Points[idx]
	}
	return out
}

// archive is the prune oracle: the Pareto front of the emulated
// points so far, sorted by ExecPs ascending with a running prefix
// minimum of TotalPJ. dominatedLB answers "does any emulated point
// strictly beat these lower bounds on BOTH objectives" in O(log n).
type archive struct {
	execPs []int64
	minPJ  []float64 // minPJ[i] = min TotalPJ over execPs[0..i]
}

func (a *archive) rebuild(points []Point, emulated []int) {
	a.execPs = a.execPs[:0]
	a.minPJ = a.minPJ[:0]
	idx := append([]int(nil), emulated...)
	sort.Slice(idx, func(i, j int) bool { return points[idx[i]].ExecPs < points[idx[j]].ExecPs })
	for _, i := range idx {
		a.execPs = append(a.execPs, points[i].ExecPs)
		pj := points[i].TotalPJ
		if n := len(a.minPJ); n > 0 && a.minPJ[n-1] < pj {
			pj = a.minPJ[n-1]
		}
		a.minPJ = append(a.minPJ, pj)
	}
}

// dominatedLB reports whether some emulated point has ExecPs < lbPs
// AND TotalPJ < lbPJ. Strict on both: a candidate that could tie the
// front on either objective is never pruned, which is what makes the
// pruned front provably identical to the exhaustive one.
func (a *archive) dominatedLB(lbPs int64, lbPJ float64) bool {
	// First index with execPs >= lbPs; everything before is strictly
	// faster than the candidate can ever be.
	i := sort.Search(len(a.execPs), func(k int) bool { return a.execPs[k] >= lbPs })
	if i == 0 {
		return false
	}
	return a.minPJ[i-1] < lbPJ
}

// Run explores the space over the model.
//
// Pipeline: enumerate → bounds (parallel, pure) → waves of
// prune-then-emulate. Candidates are ordered by ascending latency
// lower bound (ties: energy bound, then index) so the points most
// likely to dominate others are emulated first; between waves, every
// not-yet-emulated candidate whose (latency LB, energy LB) pair is
// strictly dominated by an emulated point on both objectives is
// discarded unemulated.
//
// Soundness: analyze guarantees LowerPs ≤ actual ExecPs (the bounds
// chain the conform oracles pin — the documented scheduling anomaly
// concerns the refined model beating the *estimate*, not the bound),
// and power.Profile.LowerBoundPJ ≤ actual TotalPJ down to the last
// ULP. So if an emulated point e is strictly better than a
// candidate's bounds on both objectives, it is strictly better than
// the candidate's true values too, and the candidate can neither
// enter the Pareto front nor displace anything from it. Pruning
// therefore never changes the front — the property test diffs pruned
// vs exhaustive fronts across hundreds of generated spaces.
//
// Determinism: prune decisions happen only at wave boundaries against
// the archive of completed emulations, wave composition follows the
// fixed candidate order with a fixed WaveSize, and every emulation is
// a sealed deterministic simulation merged by candidate index. The
// worker count and steal seed change only the schedule inside a wave,
// so Points, Front and all counters are byte-identical across
// -workers values.
func Run(m *psdf.Model, space *Space, opts Options) (*Result, error) {
	sp, err := space.withDefaults()
	if err != nil {
		return nil, err
	}
	cands, err := sp.Enumerate(m)
	if err != nil {
		return nil, err
	}
	waveSize := opts.WaveSize
	if waveSize <= 0 {
		waveSize = DefaultWaveSize
	}
	metrics := obs.NewExploreMetrics(opts.Registry)
	metrics.Generated.Add(int64(len(cands)))

	q, err := analyze.NewBoundsQuery(m)
	if err != nil {
		return nil, err
	}

	res := &Result{Space: sp, Generated: len(cands), Points: make([]Point, len(cands))}
	steal := parallel.StealOptions{Workers: opts.Workers, Seed: opts.Seed}

	// Stage 1: analytic bounds, embarrassingly parallel and pure. Its
	// pairs are not kept for stage 2: most candidates are pruned, and
	// holding a pair each doubled the explorer's peak memory.
	var boundsNs atomic.Int64
	parallel.StealRun(len(cands), steal, func(i int) {
		start := time.Now()
		pt := &res.Points[i]
		pt.Candidate = cands[i]
		pair := q.Pair(cands[i].Platform)
		b, err := analyze.BoundsOf(pair)
		if err != nil {
			pt.Err = fmt.Errorf("bounds: %w", err)
			return
		}
		pf, err := power.ProfileOf(pair, opts.Params)
		if err != nil {
			pt.Err = fmt.Errorf("power profile: %w", err)
			return
		}
		pt.LowerPs = b.LowerPs
		pt.UpperPs = b.UpperPs
		pt.EnergyLBPJ = pf.LowerBoundPJ(b.LowerPs)
		pt.Stage.Bounds = time.Since(start).Nanoseconds()
		boundsNs.Add(pt.Stage.Bounds)
	})

	// Candidate order: most-likely-dominators first.
	order := make([]int, 0, len(cands))
	for i := range res.Points {
		if res.Points[i].Err != nil {
			continue
		}
		order = append(order, i)
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := &res.Points[order[x]], &res.Points[order[y]]
		if a.LowerPs != b.LowerPs {
			return a.LowerPs < b.LowerPs
		}
		if a.EnergyLBPJ != b.EnergyLBPJ {
			return a.EnergyLBPJ < b.EnergyLBPJ
		}
		return a.Index < b.Index
	})

	// Stage 2: waves of prune-then-emulate on pooled machines.
	machines := pool.ForWorkers(opts.Workers)
	var emulateNs, powerNs atomic.Int64
	var emulatedIdx []int
	var arch archive
	remaining := order
	var done, failed atomic.Int64
	for len(remaining) > 0 {
		res.Waves++
		if !opts.NoPrune {
			keep := remaining[:0]
			for _, i := range remaining {
				pt := &res.Points[i]
				if arch.dominatedLB(pt.LowerPs, pt.EnergyLBPJ) {
					pt.Pruned = true
					continue
				}
				keep = append(keep, i)
			}
			remaining = keep
			if len(remaining) == 0 {
				break
			}
		}
		wave := remaining
		if len(wave) > waveSize {
			wave = wave[:waveSize]
		}
		remaining = remaining[len(wave):]

		parallel.StealRun(len(wave), steal, func(k int) {
			i := wave[k]
			pt := &res.Points[i]
			start := time.Now()
			pair := q.Pair(pt.Platform)
			report, err := machines.Run(pair, emulator.Config{}, nil)
			pt.Stage.Emulate = time.Since(start).Nanoseconds()
			emulateNs.Add(pt.Stage.Emulate)
			if err != nil {
				pt.Err = fmt.Errorf("emulate: %w", err)
				failed.Add(1)
				opts.Heartbeat.Tick(int(done.Add(1)), int(failed.Load()))
				return
			}
			start = time.Now()
			pf, err := power.ProfileOf(pair, opts.Params)
			pt.Stage.Power = time.Since(start).Nanoseconds()
			powerNs.Add(pt.Stage.Power)
			if err != nil {
				pt.Err = fmt.Errorf("power: %w", err)
				failed.Add(1)
				opts.Heartbeat.Tick(int(done.Add(1)), int(failed.Load()))
				return
			}
			est := pf.Estimate(report)
			pt.Emulated = true
			pt.ExecPs = int64(report.ExecutionTimePs)
			pt.TotalPJ = est.TotalPJ
			pt.AvgPowerMW = est.AvgPowerM
			opts.Heartbeat.Tick(int(done.Add(1)), int(failed.Load()))
		})
		// Merge in candidate order (wave is index-sorted within its
		// LB ordering, and each slot was written once), then refresh
		// the prune oracle.
		for _, i := range wave {
			if res.Points[i].Emulated {
				emulatedIdx = append(emulatedIdx, i)
			}
		}
		arch.rebuild(res.Points, emulatedIdx)
	}

	// Final tallies and the Pareto front of the emulated points.
	for i := range res.Points {
		pt := &res.Points[i]
		switch {
		case pt.Err != nil:
			pt.Error = pt.Err.Error()
			res.Errors++
		case pt.Pruned:
			res.Pruned++
		case pt.Emulated:
			res.Emulated++
		}
	}
	res.Front = paretoFront(res.Points, emulatedIdx)
	if res.Generated > 0 {
		res.PruningRatio = float64(res.Pruned) / float64(res.Generated)
	}
	res.Timing = StageNs{Bounds: boundsNs.Load(), Emulate: emulateNs.Load(), Power: powerNs.Load()}

	metrics.Pruned.Add(int64(res.Pruned))
	metrics.Emulated.Add(int64(res.Emulated))
	metrics.Errors.Add(int64(res.Errors))
	metrics.Waves.Add(int64(res.Waves))
	metrics.FrontSize.Set(float64(len(res.Front)))
	metrics.PruningRatio.Set(res.PruningRatio)
	metrics.StageBounds.Set(float64(res.Timing.Bounds))
	metrics.StageEmulate.Set(float64(res.Timing.Emulate))
	metrics.StagePower.Set(float64(res.Timing.Power))
	opts.Heartbeat.Final(int(done.Load()), int(failed.Load()))
	return res, nil
}

// paretoFront returns the indices of the non-dominated emulated
// points under weak dominance (q dominates p when q is no worse on
// both objectives and strictly better on at least one), sorted by
// (ExecPs, TotalPJ, Index). One front entry per distinct objective
// vector: exact ties collapse to their lowest-index member — the
// equivalent configurations stay visible in Points, the front is the
// trade-off curve. The choice is deterministic across pruned and
// exhaustive runs because an exact tie is never strictly dominated,
// so every tie member survives pruning and the sort sees all of them.
func paretoFront(points []Point, emulated []int) []int {
	idx := append([]int(nil), emulated...)
	sort.Slice(idx, func(i, j int) bool {
		a, b := &points[idx[i]], &points[idx[j]]
		if a.ExecPs != b.ExecPs {
			return a.ExecPs < b.ExecPs
		}
		if a.TotalPJ != b.TotalPJ {
			return a.TotalPJ < b.TotalPJ
		}
		return a.Index < b.Index
	})
	var front []int
	bestPJ := 0.0
	for k, i := range idx {
		// Sorted by (ExecPs, TotalPJ) asc: p joins the front iff it
		// strictly improves the running energy minimum (ties and
		// dominated points both fail the test).
		if p := &points[i]; k == 0 || p.TotalPJ < bestPJ {
			front = append(front, i)
			bestPJ = p.TotalPJ
		}
	}
	return front
}
