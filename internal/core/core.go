// Package core implements the paper's primary contribution as an API:
// the performance-estimation technique for the SegBus distributed
// architecture.
//
// The technique (Figure 3 of the paper) takes a partitioned
// application modeled as PSDF, a candidate platform configuration
// modeled as PSM, transforms both into XML schemes, feeds the schemes
// to the emulator, and returns execution-time and utilisation
// estimates the designer uses to pick a configuration before moving to
// lower abstraction levels. This package drives the whole pipeline —
// including the design-space exploration loop across many candidate
// configurations, run concurrently — and the accuracy experiment that
// compares the estimate with the refined (ground-truth) model.
package core

import (
	"fmt"

	"segbus/internal/analyze"
	"segbus/internal/emulator"
	"segbus/internal/emulator/pool"
	"segbus/internal/m2t"
	"segbus/internal/obs"
	"segbus/internal/parallel"
	"segbus/internal/place"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/realplat"
	"segbus/internal/schema"
	"segbus/internal/stats"
	"segbus/internal/trace"
)

// Options tunes an estimation.
type Options struct {
	// Trace enables interval/mark recording (Figure 10/11 views).
	Trace bool

	// DetectTicks overrides the monitor's end-detection latency.
	DetectTicks int64

	// Overheads selects a non-default timing model; leave zero for
	// the paper's estimation model.
	Overheads emulator.Overheads

	// Policy selects the segment arbiters' selection rule; the zero
	// value is the default border-units-first policy.
	Policy emulator.Policy

	// Observer, when non-nil, receives emulation events as they
	// happen (stages, grants, deliveries).
	Observer emulator.Observer

	// Metrics, when non-nil, receives the run's monitoring counters
	// (see emulator.Config.Metrics).
	Metrics *obs.Registry

	// Preflight runs the static structural and liveness analyzers
	// before spending emulation time; error-severity findings abort
	// the estimation with a PreflightError carrying every coded
	// diagnostic.
	Preflight bool
}

// PreflightError reports that the static pre-flight analysis rejected
// the model pair before emulation. Result carries the full coded
// diagnostics for display or JSON output.
type PreflightError struct {
	Result *analyze.Result
}

// Error implements the error interface with the aggregated findings.
func (e *PreflightError) Error() string {
	errs, _, _ := e.Result.Counts()
	s := fmt.Sprintf("core: preflight found %d error(s)", errs)
	for _, d := range e.Result.Diagnostics {
		if d.Severity == analyze.SeverityError {
			s += "; " + d.String()
		}
	}
	return s
}

// Preflight runs the static structural and liveness analyzers on a
// model pair — the cheap gate every tool can apply before an
// emulation or exploration run. plat may be nil to check a bare
// application model.
func Preflight(m *psdf.Model, plat *platform.Platform) *analyze.Result {
	return analyze.RunModels(m, plat, analyze.Options{
		Analyzers: analyze.PreflightAnalyzers(),
	})
}

// Estimation is the result of estimating one (application,
// configuration) pair.
type Estimation struct {
	Report *emulator.Report
	Trace  *trace.Trace // nil unless Options.Trace was set
	BUs    []stats.BUAnalysis
}

// ExecutionTimePs returns the estimated total execution time in
// picoseconds.
func (e *Estimation) ExecutionTimePs() int64 { return int64(e.Report.ExecutionTimePs) }

// emulatorConfig translates the estimation options into the emulator
// configuration, attaching the given trace sink.
func (o Options) emulatorConfig(tr *trace.Trace) emulator.Config {
	return emulator.Config{
		Overheads:   o.Overheads,
		DetectTicks: o.DetectTicks,
		Policy:      o.Policy,
		Observer:    o.Observer,
		Trace:       tr,
		Metrics:     o.Metrics,
	}
}

// Estimate runs the estimation technique on in-memory models.
func Estimate(m *psdf.Model, plat *platform.Platform, opts Options) (*Estimation, error) {
	return estimate(nil, m, plat, opts)
}

// EstimateOn runs the estimation technique on a caller-provided
// reusable emulator machine — the pooling seam a long-lived service
// uses to skip per-request machine construction. Results are
// byte-identical to Estimate for the same inputs; only the arena
// storage is reused. The machine must not be in use by another
// goroutine.
func EstimateOn(mc *emulator.Machine, m *psdf.Model, plat *platform.Platform, opts Options) (*Estimation, error) {
	return estimate(mc, m, plat, opts)
}

// estimate is the shared body of Estimate and EstimateOn: mc == nil
// runs on a fresh machine.
func estimate(mc *emulator.Machine, m *psdf.Model, plat *platform.Platform, opts Options) (*Estimation, error) {
	if opts.Preflight {
		if res := Preflight(m, plat); res.HasErrors() {
			return nil, &PreflightError{Result: res}
		}
	}
	var tr *trace.Trace
	if opts.Trace {
		tr = &trace.Trace{}
	}
	cfg := opts.emulatorConfig(tr)
	var r *emulator.Report
	var err error
	if mc != nil {
		r, err = mc.Run(m, plat, cfg)
	} else {
		r, err = emulator.Run(m, plat, cfg)
	}
	if err != nil {
		return nil, err
	}
	return &Estimation{Report: r, Trace: tr, BUs: stats.AnalyzeBUs(r)}, nil
}

// EstimateXML runs the paper's exact flow: the PSDF and PSM XML
// schemes produced by the model-to-text transformation are parsed,
// the platform structure is rebuilt, and the emulation is executed.
// packageSize overrides the scheme's package size when positive (the
// paper supplies the package size to the emulator alongside the
// schemes).
func EstimateXML(psdfXML, psmXML []byte, packageSize int, opts Options) (*Estimation, error) {
	m, err := schema.ParsePSDF(psdfXML)
	if err != nil {
		return nil, err
	}
	plat, err := schema.ParsePSM(psmXML)
	if err != nil {
		return nil, err
	}
	if packageSize > 0 {
		plat.PackageSize = packageSize
	}
	return Estimate(m, plat, opts)
}

// Transform applies the model-to-text transformation to both models
// and returns the generated XML schemes (PSDF first, PSM second) —
// the handoff artifact between the modeling tool and the emulator.
func Transform(m *psdf.Model, plat *platform.Platform) (psdfXML, psmXML []byte, err error) {
	psdfXML, err = m2t.GeneratePSDF(m)
	if err != nil {
		return nil, nil, err
	}
	psmXML, err = m2t.GeneratePSM(plat)
	if err != nil {
		return nil, nil, err
	}
	return psdfXML, psmXML, nil
}

// RoundTrip performs Transform followed by EstimateXML, exercising
// the full methodology pipeline end to end.
func RoundTrip(m *psdf.Model, plat *platform.Platform, opts Options) (*Estimation, error) {
	psdfXML, psmXML, err := Transform(m, plat)
	if err != nil {
		return nil, err
	}
	return EstimateXML(psdfXML, psmXML, 0, opts)
}

// AccuracyExperiment estimates the configuration with the estimation
// model, runs the refined (ground-truth) model on the same
// configuration, and returns the comparison — the procedure behind
// the paper's 95%/93% accuracy figures.
func AccuracyExperiment(label string, m *psdf.Model, plat *platform.Platform) (stats.Accuracy, error) {
	est, err := emulator.Run(m, plat, emulator.Config{})
	if err != nil {
		return stats.Accuracy{}, fmt.Errorf("core: estimation run: %w", err)
	}
	act, err := realplat.Run(m, plat, realplat.Config{})
	if err != nil {
		return stats.Accuracy{}, fmt.Errorf("core: refined run: %w", err)
	}
	return stats.Compare(label, est, act), nil
}

// Candidate is one configuration entering design-space exploration.
type Candidate struct {
	Label    string
	Platform *platform.Platform
}

// Ranked is one exploration outcome.
type Ranked struct {
	Candidate Candidate
	Report    *emulator.Report
	Err       error
}

// Explore estimates every candidate configuration concurrently on
// pooled machines and returns the outcomes in candidate order together
// with a rendered ranking table of the successful ones (fastest
// first). workers <= 0 selects one worker per CPU.
func Explore(m *psdf.Model, candidates []Candidate, workers int) ([]Ranked, string) {
	machines := pool.ForWorkers(workers)
	out := make([]Ranked, len(candidates))
	parallel.StealRun(len(candidates), parallel.StealOptions{Workers: workers}, func(i int) {
		r, err := machines.Run(m, candidates[i].Platform, emulator.Config{})
		out[i] = Ranked{Candidate: candidates[i], Report: r, Err: err}
	})
	var rows []stats.ConfigResult
	for _, r := range out {
		if r.Err == nil {
			rows = append(rows, stats.RowFromReport(r.Candidate.Label, r.Report))
		}
	}
	return out, stats.RankTable(rows)
}

// Best returns the fastest successful outcome of an exploration, or
// an error when every candidate failed.
func Best(ranked []Ranked) (Ranked, error) {
	best := -1
	for i, r := range ranked {
		if r.Err != nil {
			continue
		}
		if best < 0 || r.Report.ExecutionTimePs < ranked[best].Report.ExecutionTimePs {
			best = i
		}
	}
	if best < 0 {
		return Ranked{}, fmt.Errorf("core: no candidate configuration could be estimated")
	}
	return ranked[best], nil
}

// PlatformFromAllocation builds a platform from a placement result:
// segment i (zero-based) receives clock clocks[i]. The allocation's
// segment count must match len(clocks).
func PlatformFromAllocation(name string, a place.Allocation, clocks []platform.Hz, caClock platform.Hz, packageSize, headerTicks, caHopTicks int) (*platform.Platform, error) {
	if len(clocks) != a.Segments {
		return nil, fmt.Errorf("core: %d clocks for %d segments", len(clocks), a.Segments)
	}
	if !a.Valid() {
		return nil, fmt.Errorf("core: invalid allocation %v", a)
	}
	p := platform.New(name, caClock, packageSize)
	p.HeaderTicks = headerTicks
	p.CAHopTicks = caHopTicks
	for s := 0; s < a.Segments; s++ {
		p.AddSegment(clocks[s], a.ProcessesOn(s)...)
	}
	return p, nil
}

// AutoPlace derives the communication matrix from the model, solves
// the placement for the given segment count and returns the resulting
// platform — the PlaceTool step of the paper's flow (section 3.5).
func AutoPlace(name string, m *psdf.Model, clocks []platform.Hz, caClock platform.Hz, packageSize, headerTicks, caHopTicks int) (*platform.Platform, error) {
	cm := m.CommunicationMatrix()
	alloc, err := place.Solve(cm, len(clocks), place.Options{})
	if err != nil {
		return nil, err
	}
	return PlatformFromAllocation(name, alloc, clocks, caClock, packageSize, headerTicks, caHopTicks)
}
