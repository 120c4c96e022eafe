// Package analyze implements segbus-vet's static model-analysis
// framework: a registry of analyzers — in the style of go/analysis —
// that inspect a (PSDF, PSM) model pair without running the emulator
// and report diagnostics with stable SB0xx codes.
//
// Four analyzer families ship with the package:
//
//   - structural: the dsl/psdf/platform well-formedness validators,
//     surfaced behind their stable codes (SB001–SB041);
//   - liveness: flow-dependency cycles within one schedule stage,
//     T-order contradictions, and processes that can never feed a
//     final node (SB101–SB103);
//   - bounds: static per-segment bus loads, CA circuit set-up load,
//     and a critical-path lower / full-serialization upper bound on
//     the execution time, proven against the emulator by property
//     test (SB201);
//   - congestion: border-unit traffic-imbalance and segment-load
//     lints reproducing the paper's conclusion about rebalancing the
//     BU12 hot spot, naming migration candidates (SB301–SB303).
//
// The framework is exposed on the command line as cmd/segbus-vet and
// as an optional pre-flight pass of internal/core's estimation entry
// points.
package analyze

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"segbus/internal/dsl"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// Severity classifies a diagnostic. Errors mark models the emulator
// would reject or that provably cannot complete; warnings mark risky
// but runnable constructions; infos report derived figures.
type Severity int

// Diagnostic severities, ordered most severe first so that sorting
// diagnostics lists errors before warnings before infos.
const (
	SeverityError Severity = iota
	SeverityWarning
	SeverityInfo
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SeverityError:
		return "error"
	case SeverityWarning:
		return "warning"
	case SeverityInfo:
		return "info"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses a severity name, so consumers of the vet JSON
// can decode reports back into the package's types.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "error":
		*s = SeverityError
	case "warning":
		*s = SeverityWarning
	case "info":
		*s = SeverityInfo
	default:
		return fmt.Errorf("analyze: unknown severity %q", name)
	}
	return nil
}

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Code     string   `json:"code"`     // stable SB0xx code
	Severity Severity `json:"severity"` // error, warning or info
	Analyzer string   `json:"analyzer"` // reporting analyzer name
	Element  string   `json:"element"`  // model element to highlight
	Message  string   `json:"message"`  // human-readable description

	// Trace is a minimal counterexample for reachability findings
	// (SB050): the action sequence driving the schedule into the
	// reported state, one action per line. Empty for other codes; the
	// one-line String rendering omits it (segbus-vet prints it behind
	// -why, and the JSON report carries it verbatim).
	Trace []string `json:"trace,omitempty"`
}

// String renders the diagnostic on one line:
// "warning SB301 BU12: crossing traffic imbalance ...".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s %s %s: %s", d.Severity, d.Code, d.Element, d.Message)
}

// Pass carries one analysis run's inputs to an analyzer and collects
// its findings. Model is always set; Platform may be nil for
// analyzers that do not require one; Doc is set when the input came
// from the DSL (carrying stereotype declarations). Pair is the run's
// one admission of (Model, Platform), shared by every analyzer.
type Pass struct {
	Model    *psdf.Model
	Platform *platform.Platform
	Doc      *dsl.Document
	Pair     *sched.Pair

	analyzer string
	result   *Result
}

// bounds returns BoundsOf the pass's pair, computed once per run; nil
// when the pair fails a check the bounds require.
func (p *Pass) bounds() *Bounds {
	r := p.result
	if !r.boundsDone {
		r.bounds, _ = BoundsOf(p.Pair)
		r.boundsDone = true
	}
	return r.bounds
}

// Report records one finding.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.analyzer
	if d.Code == "" {
		d.Code = "SB000"
	}
	p.result.Diagnostics = append(p.result.Diagnostics, d)
}

// Reportf records one finding with a formatted message.
func (p *Pass) Reportf(code string, sev Severity, element, format string, args ...interface{}) {
	p.Report(Diagnostic{
		Code:     code,
		Severity: sev,
		Element:  element,
		Message:  fmt.Sprintf(format, args...),
	})
}

// An Analyzer is one registered analysis. Run inspects the pass inputs
// and reports diagnostics; it must not mutate the model or platform.
type Analyzer struct {
	// Name identifies the analyzer ("structural", "liveness", ...).
	Name string

	// Doc is a one-line description for -codes style listings.
	Doc string

	// NeedsPlatform marks analyzers that cannot run on a bare PSDF
	// model; they are skipped (and recorded in Result.Skipped) when
	// the input has no platform.
	NeedsPlatform bool

	// Run performs the analysis.
	Run func(*Pass)
}

// The built-in registry. Analyzers run in registration order, but
// diagnostics are sorted afterwards, so order only affects Skipped.
var registry []*Analyzer

// Register adds an analyzer to the registry. It panics on a duplicate
// name, mirroring go/analysis semantics of unique analyzer identity.
func Register(a *Analyzer) {
	for _, r := range registry {
		if r.Name == a.Name {
			panic("analyze: duplicate analyzer " + a.Name)
		}
	}
	registry = append(registry, a)
}

// Analyzers returns the registered analyzers in registration order.
func Analyzers() []*Analyzer {
	out := make([]*Analyzer, len(registry))
	copy(out, registry)
	return out
}

// ByName resolves analyzer names to registered analyzers, preserving
// registration order and rejecting unknown names.
func ByName(names ...string) ([]*Analyzer, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range registry {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("analyze: unknown analyzer(s): %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// PreflightAnalyzers returns the subset suitable as a cheap gate
// before estimation: the structural and liveness families, whose
// error-severity findings mark models the emulator would reject or
// deadlock on. The bounds and congestion families are advisory and
// excluded.
func PreflightAnalyzers() []*Analyzer {
	as, err := ByName("structural", "liveness")
	if err != nil {
		panic(err) // built-ins are always registered
	}
	return as
}

// Options tunes an analysis run.
type Options struct {
	// Analyzers selects a subset; nil runs every registered analyzer.
	Analyzers []*Analyzer
}

// Result aggregates one analysis run.
type Result struct {
	Model       string       `json:"model"`
	Platform    string       `json:"platform,omitempty"`
	Diagnostics []Diagnostic `json:"diagnostics"`
	Skipped     []string     `json:"skipped,omitempty"` // analyzers skipped (no platform)
	Bounds      *Bounds      `json:"bounds,omitempty"`  // set by the bounds analyzer
	Pair        *sched.Pair  `json:"-"`                 // the run's admission, to emulate on

	bounds     *Bounds // Pass.bounds' memo
	boundsDone bool
}

// Counts returns the number of error, warning and info diagnostics.
func (r *Result) Counts() (errors, warnings, infos int) {
	for _, d := range r.Diagnostics {
		switch d.Severity {
		case SeverityError:
			errors++
		case SeverityWarning:
			warnings++
		default:
			infos++
		}
	}
	return
}

// HasErrors reports whether any diagnostic has error severity.
func (r *Result) HasErrors() bool {
	e, _, _ := r.Counts()
	return e > 0
}

// HasWarnings reports whether any diagnostic has warning severity.
func (r *Result) HasWarnings() bool {
	_, w, _ := r.Counts()
	return w > 0
}

// JSON renders the result as indented, machine-readable JSON with a
// format version for downstream tooling.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		Version int `json:"version"`
		*Result
	}{Version: 1, Result: r}, "", "  ")
}

// String renders the full report: header, one line per diagnostic,
// the static-bounds block when available, and a severity tally.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model %s", r.Model)
	if r.Platform != "" {
		fmt.Fprintf(&b, " on %s", r.Platform)
	}
	b.WriteByte('\n')
	for _, d := range r.Diagnostics {
		fmt.Fprintf(&b, "%s\n", d)
	}
	for _, name := range r.Skipped {
		fmt.Fprintf(&b, "note: analyzer %s skipped (requires a platform)\n", name)
	}
	if r.Bounds != nil {
		b.WriteString(r.Bounds.String())
	}
	e, w, i := r.Counts()
	fmt.Fprintf(&b, "%d error(s), %d warning(s), %d info(s)\n", e, w, i)
	return b.String()
}

// Run analyzes a DSL document: the parsed model, its optional platform
// and its stereotype declarations, admitted once for every analyzer.
func Run(doc *dsl.Document, opts Options) *Result {
	res := &Result{Model: doc.Model.Name(), Pair: sched.NewPair(doc.Model, doc.Platform)}
	if doc.Platform != nil {
		res.Platform = doc.Platform.Name
	}
	as := opts.Analyzers
	if as == nil {
		as = registry
	}
	for _, a := range as {
		if a.NeedsPlatform && doc.Platform == nil {
			res.Skipped = append(res.Skipped, a.Name)
			continue
		}
		pass := &Pass{
			Model:    doc.Model,
			Platform: doc.Platform,
			Doc:      doc,
			Pair:     res.Pair,
			analyzer: a.Name,
			result:   res,
		}
		a.Run(pass)
	}
	sortDiagnostics(res.Diagnostics)
	return res
}

// RunModels analyzes a bare (model, platform) pair; plat may be nil.
func RunModels(m *psdf.Model, plat *platform.Platform, opts Options) *Result {
	return Run(&dsl.Document{Model: m, Platform: plat}, opts)
}

// sortDiagnostics orders findings for deterministic output: most
// severe first, then by code, element and message.
func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Element != b.Element {
			return a.Element < b.Element
		}
		return a.Message < b.Message
	})
}

// FromError extracts coded diagnostics from validation errors raised
// by the psdf, platform or dsl layers — including wrapped ones, as
// returned by the XML schema importers. It reports ok=false when err
// carries no recognised aggregate, in which case the caller should
// fall back to plain error printing.
func FromError(err error) (ds []Diagnostic, ok bool) {
	for e := err; e != nil; e = unwrap(e) {
		switch v := e.(type) {
		case psdf.ValidationErrors:
			for _, ve := range v {
				el := "model"
				if ve.Flow != nil {
					el = ve.Flow.String()
				}
				ds = append(ds, Diagnostic{
					Code: ve.Code, Severity: SeverityError, Analyzer: "structural",
					Element: el, Message: ve.Message,
				})
			}
			return ds, true
		case platform.ConstraintViolations:
			for _, cv := range v {
				ds = append(ds, Diagnostic{
					Code: cv.Code, Severity: SeverityError, Analyzer: "structural",
					Element: cv.Element, Message: cv.Message,
				})
			}
			return ds, true
		case *emulator.DeadlockError:
			el := "model"
			if len(v.Blocked) > 0 {
				el = v.Blocked[0].Proc.String()
			}
			ds = append(ds, Diagnostic{
				Code: CodeDeadlockState, Severity: SeverityError, Analyzer: "liveness",
				Element: el, Message: strings.TrimPrefix(v.Error(), "emulator: "),
			})
			return ds, true
		}
	}
	return nil, false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}
