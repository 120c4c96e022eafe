package analyze

import (
	"fmt"
	"strings"

	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// CodeBoundsInfo is the informational diagnostic summarising the
// static execution-time bounds (SB201).
const CodeBoundsInfo = "SB201"

// SegmentLoad is the statically computed bus occupancy of one segment:
// the clock ticks its bus spends on package transactions (header plus
// data phases of intra-segment transfers, border-unit fills and
// unloads), and that figure in picoseconds of the segment's clock.
type SegmentLoad struct {
	Segment  int   `json:"segment"`
	BusTicks int64 `json:"busTicks"`
	BusyPs   int64 `json:"busyPs"`
}

// BUCrossing counts the package transfers crossing one border unit in
// each direction over a whole execution.
type BUCrossing struct {
	Name      string `json:"name"`
	Rightward int    `json:"rightward"`
	Leftward  int    `json:"leftward"`
}

// Peak returns the larger directional count (the FIFO pair of a BU
// serves each direction independently).
func (c BUCrossing) Peak() int {
	if c.Leftward > c.Rightward {
		return c.Leftward
	}
	return c.Rightward
}

// Bounds holds the static performance figures of the bounds analyzer:
// provable lower and upper bounds on the estimation-model execution
// time, and the per-element load totals they derive from. The bounds
// are proven against the emulator by property test:
// LowerPs ≤ Report.ExecutionTimePs ≤ UpperPs.
type Bounds struct {
	PackageSize   int `json:"packageSize"`
	TotalPackages int `json:"totalPackages"`

	// CriticalPathPs sums, over the schedule's stages, the largest
	// serial emission chain of any one process in that stage: stages
	// are strict barriers and a functional unit is busy from compute
	// start to package delivery, so no schedule can beat it.
	CriticalPathPs int64 `json:"criticalPathPs"`

	// BusLoadPs is the busiest segment's total bus occupancy; the
	// segment bus serialises its transactions, so it too is a lower
	// bound.
	BusLoadPs int64 `json:"busLoadPs"`

	// LowerPs = max(CriticalPathPs, BusLoadPs).
	LowerPs int64 `json:"lowerPs"`

	// UpperPs assumes full serialisation: every package transfer runs
	// alone on the platform, with a clock-alignment allowance per
	// package and the monitor's end-detection latency on top.
	UpperPs int64 `json:"upperPs"`

	// CASetupTicks totals the CA-clock circuit set-up ticks charged
	// for inter-segment transfers (CAHopTicks per hop per package).
	CASetupTicks int64 `json:"caSetupTicks"`

	Segments  []SegmentLoad `json:"segments"`
	Crossings []BUCrossing  `json:"crossings,omitempty"`
}

// String renders the bounds block of the vet report.
func (b *Bounds) String() string {
	var sb strings.Builder
	sb.WriteString("-- static performance bounds --\n")
	fmt.Fprintf(&sb, "package size %d, %d package transfers\n", b.PackageSize, b.TotalPackages)
	fmt.Fprintf(&sb, "lower bound %d ps (critical path %d ps, peak segment load %d ps)\n",
		b.LowerPs, b.CriticalPathPs, b.BusLoadPs)
	fmt.Fprintf(&sb, "upper bound %d ps (full serialization)\n", b.UpperPs)
	for _, s := range b.Segments {
		fmt.Fprintf(&sb, "Segment %d: %d bus ticks (%d ps busy)\n", s.Segment, s.BusTicks, s.BusyPs)
	}
	fmt.Fprintf(&sb, "CA: %d circuit set-up ticks\n", b.CASetupTicks)
	for _, c := range b.Crossings {
		fmt.Fprintf(&sb, "%s: %d rightward / %d leftward crossing packages\n",
			c.Name, c.Rightward, c.Leftward)
	}
	return sb.String()
}

// The bounds analyzer publishes the static figures as Result.Bounds
// and reports the SB201 summary. It runs only on structurally valid
// (model, platform) pairs; on invalid inputs the structural analyzer
// carries the findings and bounds are meaningless.
func init() {
	Register(&Analyzer{
		Name:          "bounds",
		Doc:           "static bus/CA load totals and execution-time lower/upper bounds",
		NeedsPlatform: true,
		Run:           runBounds,
	})
}

func runBounds(pass *Pass) {
	b := pass.bounds()
	if b == nil {
		return // structural findings cover invalid inputs
	}
	pass.result.Bounds = b
	pass.Reportf(CodeBoundsInfo, SeverityInfo, "model",
		"static bounds: execution time between %d and %d ps (%d package transfers)",
		b.LowerPs, b.UpperPs, b.TotalPackages)
}

// ComputeBounds derives the static performance figures for model m on
// platform plat: BoundsOf their pair.
func ComputeBounds(m *psdf.Model, plat *platform.Platform) (*Bounds, error) {
	return BoundsOf(sched.NewPair(m, plat))
}

// BoundsQuery answers repeated bounds queries over one model — the
// design-space explorer's seam. A space fixes the application and
// varies the platform, so the model-side validation is paid once here
// and each candidate pays only the platform-dependent work.
type BoundsQuery struct {
	model *sched.ModelCheck
}

// NewBoundsQuery validates the model once and returns a query handle.
func NewBoundsQuery(m *psdf.Model) (*BoundsQuery, error) {
	q := &BoundsQuery{model: sched.CheckModel(m)}
	if q.model.Err != nil {
		return nil, fmt.Errorf("analyze: bounds need a valid model: %w", q.model.Err)
	}
	return q, nil
}

// Pair admits a candidate platform against the query's model, for
// BoundsOf and the candidate's other consumers.
func (q *BoundsQuery) Pair(plat *platform.Platform) *sched.Pair { return q.model.Pair(plat) }

// Bounds computes the static figures of the query's model on one
// candidate platform.
func (q *BoundsQuery) Bounds(plat *platform.Platform) (*Bounds, error) { return BoundsOf(q.Pair(plat)) }

// BoundsOf derives the static performance figures of a pair under the
// paper's estimation timing model (zero protocol overheads, default
// end-detection latency). It wraps the pair's first failed model,
// platform or mapping check; the roles change no figure.
func BoundsOf(p *sched.Pair) (*Bounds, error) {
	switch {
	case p.ModelErr != nil:
		return nil, fmt.Errorf("analyze: bounds need a valid model: %w", p.ModelErr)
	case p.PlatformErr != nil:
		return nil, fmt.Errorf("analyze: bounds need a valid platform: %w", p.PlatformErr)
	case p.MappingErr != nil:
		return nil, fmt.Errorf("analyze: bounds need a complete mapping: %w", p.MappingErr)
	}
	return computeBounds(p.Model, p.Platform), nil
}

// computeBounds derives the figures in closed form. Every package of a
// flow but the last carries s items and costs the same, so a flow adds
// pk−1 times its first package's latency and load plus its last
// one's: O(flows × hops), not O(packages). The int64 sums wrap alike
// under multiplication and repeated addition, so every figure equals a
// package-by-package walk's to the bit (TestBoundsMatchPerPackageOracle).
func computeBounds(m *psdf.Model, plat *platform.Platform) *Bounds {
	s := plat.PackageSize
	nominal := m.NominalPackageSize()
	header, caHop := int64(plat.HeaderTicks), int64(plat.CAHopTicks)
	caPeriod := plat.CAClock.PeriodPs()

	// Per-segment figures are indexed by segment index − 1, per-BU ones
	// by the BU's left segment − 1: the admitted platform numbers its
	// segments 1..n. Every border unit gets an entry, so fully idle BUs
	// still show up as the cold side of an imbalance.
	b := &Bounds{PackageSize: s, Segments: make([]SegmentLoad, len(plat.Segments))}
	periods := make([]int64, len(plat.Segments))
	maxPeriod := caPeriod
	for i, seg := range plat.Segments {
		periods[i] = seg.Clock.PeriodPs()
		maxPeriod = max(maxPeriod, periods[i])
		b.Segments[i].Segment = seg.Index
	}
	for _, bu := range plat.BUs() {
		b.Crossings = append(b.Crossings, BUCrossing{Name: bu.Name()})
	}

	// Flows come sorted by order, then source, so the serial emission
	// chain of one process in one stage is a run of consecutive flows.
	var upperWork, chain, stageMax int64
	flows := m.Flows()
	for i, f := range flows {
		src, dst, _ := plat.FlowSegments(f)
		route, rightward := plat.Route(src, dst)
		hops := int64(len(route))
		pk := f.Packages(s)
		b.TotalPackages += pk
		for _, bu := range route {
			if c := &b.Crossings[bu.Left-1]; rightward {
				c.Rightward += pk
			} else {
				c.Leftward += pk
			}
		}
		if pk > 0 {
			for _, run := range [...]struct{ pkg, n int }{{1, pk - 1}, {pk, 1}} {
				n, ticks := int64(run.n), header+int64(f.PackageItems(s, run.pkg))
				// FU processing plus the source-segment transaction (an
				// intra-segment transfer or the fill into the first BU),
				// and the CA circuit set-up per hop on the CA clock.
				latency := (f.PackageTicks(s, nominal, run.pkg)+ticks)*periods[src-1] + hops*caHop*caPeriod
				b.Segments[src-1].BusTicks += n * ticks
				// One unload transaction per crossed BU, charged on the
				// entered segment's bus and clock.
				for _, bu := range route {
					e := bu.Entered(rightward) - 1
					b.Segments[e].BusTicks += n * ticks
					latency += ticks * periods[e]
				}
				b.CASetupTicks += n * hops * caHop
				chain += n * latency
				// Full-serialisation allowance: the package's isolated
				// latency plus a clock-edge alignment per scheduling step
				// (compute start, grant, per-hop CA grant and unload
				// grant, delivery), each at most one period of the
				// slowest clock.
				upperWork += n * (latency + (4+3*hops)*maxPeriod)
			}
		}
		last := i+1 == len(flows)
		if last || flows[i+1].Order != f.Order || flows[i+1].Source != f.Source {
			stageMax, chain = max(stageMax, chain), 0
		}
		if last || flows[i+1].Order != f.Order {
			b.CriticalPathPs, stageMax = b.CriticalPathPs+stageMax, 0
		}
	}

	for i := range b.Segments {
		sl := &b.Segments[i]
		sl.BusyPs = sl.BusTicks * periods[i]
		b.BusLoadPs = max(b.BusLoadPs, sl.BusyPs)
	}
	b.LowerPs = max(b.CriticalPathPs, b.BusLoadPs)
	// End detection: the monitor adds DetectTicks CA ticks after the
	// last activity, and every arbiter's tick total is rounded up to
	// a full period.
	b.UpperPs = upperWork + (emulator.DefaultDetectTicks+1)*caPeriod + maxPeriod
	return b
}
