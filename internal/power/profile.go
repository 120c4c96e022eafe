package power

import (
	"fmt"

	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// Profile is the run-independent activity of a (model, platform)
// pair: the traffic and compute figures that are fully determined by
// the extracted schedule and the bus topology before any emulation
// happens. Estimate derives its bus and compute energies from exactly
// these figures; the design-space explorer uses them, together with
// analyze's latency lower bound, to lower-bound a candidate's energy
// without emulating it.
type Profile struct {
	params    Params
	segments  int
	busItems  map[int]int64 // segment -> items moved on its bus
	compTicks map[int]int64 // segment -> FU compute ticks
	buItems   map[int]int64 // BU (keyed by Left segment) -> items crossing

	segOrder []int         // plat.Segments order, for float-stable summation
	buOrder  []platform.BU // plat.BUs() order, matching the report's grouping
}

// NewProfile extracts the activity profile of model m on platform
// plat: ProfileOf their pair.
func NewProfile(m *psdf.Model, plat *platform.Platform, params Params) (*Profile, error) {
	return ProfileOf(sched.NewPair(m, plat), params)
}

// ProfileOf extracts the activity profile of a pair from its schedule;
// it applies none of the pair's admission checks, but refuses a flow
// whose source or target no segment hosts (platform.FlowSegments), as
// on a model paired with another model's platform. The Params fix the
// coefficients the bounds and Estimate price with (zero selects
// DefaultParams).
func ProfileOf(p *sched.Pair, params Params) (*Profile, error) {
	if params.zero() {
		params = DefaultParams
	}
	s, err := p.Schedule()
	if err != nil {
		return nil, err
	}
	m, plat := p.Model, p.Platform
	pf := &Profile{
		params:    params,
		segments:  plat.NumSegments(),
		busItems:  make(map[int]int64),
		compTicks: make(map[int]int64),
		buItems:   make(map[int]int64),
	}
	nominal := m.NominalPackageSize()
	for i := range s.Flows() {
		f := s.Flow(sched.FlowID(i))
		src, dst, ok := plat.FlowSegments(f)
		if !ok {
			return nil, fmt.Errorf("power: flow %s has an endpoint on no segment of platform %q", f, plat.Name)
		}
		// Identical attribution to Estimate: every item occupies the
		// bus of every segment on its route, and crosses every BU on
		// the route once (the emulator's BU load ticks count exactly
		// one tick per item loaded, which TestProfileMatchesRun pins).
		route, rightward := plat.Route(src, dst)
		pf.busItems[src] += int64(f.Items)
		for _, bu := range route {
			pf.busItems[bu.Entered(rightward)] += int64(f.Items)
			pf.buItems[bu.Left] += int64(f.Items)
		}
		pkgs := s.Packages(sched.FlowID(i))
		var ticks int64
		if nominal > 0 {
			ticks = (int64(f.Ticks)*int64(f.Items) + int64(nominal) - 1) / int64(nominal)
		} else {
			ticks = int64(f.Ticks) * int64(pkgs)
		}
		pf.compTicks[src] += ticks
	}
	for _, seg := range plat.Segments {
		pf.segOrder = append(pf.segOrder, seg.Index)
	}
	pf.buOrder = plat.BUs()
	return pf, nil
}

// TotalBusItems returns the summed per-segment bus traffic — a cheap
// run-independent congestion figure for reports.
func (pf *Profile) TotalBusItems() int64 {
	var n int64
	for _, v := range pf.busItems {
		n += v
	}
	return n
}

// TotalBUItems returns the summed border-unit crossings.
func (pf *Profile) TotalBUItems() int64 {
	var n int64
	for _, bu := range pf.buOrder {
		n += pf.buItems[bu.Left]
	}
	return n
}

// LowerBoundPJ returns a provable lower bound on the TotalPJ of any
// run of this pair that executes in at least latencyLBPs picoseconds
// (analyze's Bounds.LowerPs supplies that figure):
//
//   - bus, BU and compute energies are run-independent and counted
//     exactly as Estimate counts them;
//   - arbiter activity (SA, CA) is bounded below by zero;
//   - static leakage is monotone in the run time, so pricing it at
//     the latency lower bound bounds it below.
//
// Soundness down to the last ULP: the terms are accumulated in the
// same order as Estimate's with the SA/CA terms replaced by zero, and
// IEEE-754 round-to-nearest is monotone, so the float result can
// never exceed Estimate's TotalPJ for the same pair. The prune
// soundness property test exercises this across generated spaces.
func (pf *Profile) LowerBoundPJ(latencyLBPs int64) float64 {
	var dynamic float64
	for _, seg := range pf.segOrder {
		busPJ := float64(pf.busItems[seg]) * pf.params.BusPJPerItem
		computePJ := float64(pf.compTicks[seg]) * pf.params.FUPJPerTick
		dynamic += busPJ + 0 + computePJ
	}
	for _, bu := range pf.buOrder {
		dynamic += float64(pf.buItems[bu.Left]) * pf.params.BUPJPerItem
	}
	dynamic += 0 // CA activity ≥ 0

	runSeconds := float64(latencyLBPs) * 1e-12
	staticPJ := pf.params.StaticUWPerSeg * 1e-6 * float64(pf.segments) * runSeconds * 1e12
	return dynamic + staticPJ
}
