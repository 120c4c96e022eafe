// Package power estimates the energy consumption of an emulated run.
//
// The paper's conclusion notes that early configuration decisions
// "not only improve the quality of the eventual system in terms of
// performance, but also improve power consumption up to some extent"
// (citing the application-development-flow work of its reference [9]).
// This package makes that observable: from an emulation report and the
// (model, platform) pair it derives an activity-based energy estimate —
// data movement on segment buses, border-unit FIFO crossings, arbiter
// activity and functional-unit processing — so configurations can be
// ranked by energy next to execution time.
//
// The coefficients are deliberately simple per-event energies (the
// platform's RTL would calibrate them); what the estimate preserves is
// the *structure*: inter-segment transfers cost extra (every crossing
// writes and reads a FIFO and occupies an additional bus), so
// placements that localise traffic rank better, which is the claim the
// extension exists to support.
package power

import (
	"fmt"
	"sort"
	"strings"

	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// Params are the per-event energy coefficients in picojoules and the
// static power in microwatts. DefaultParams provides plausible
// relative magnitudes for a ~90 nm bus platform; absolute values are
// placeholders to be calibrated against the RTL.
type Params struct {
	BusPJPerItem   float64 // moving one data item across one segment bus
	BUPJPerItem    float64 // one FIFO write+read pair per item crossing a BU
	SAPJPerTick    float64 // segment arbiter activity per counted tick
	CAPJPerTick    float64 // central arbiter activity per counted tick
	FUPJPerTick    float64 // functional unit processing per compute tick
	StaticUWPerSeg float64 // per-segment static power (leakage), microwatts
}

// DefaultParams are the coefficients used when Estimate receives the
// zero value.
var DefaultParams = Params{
	BusPJPerItem:   1.8,
	BUPJPerItem:    2.6,
	SAPJPerTick:    0.05,
	CAPJPerTick:    0.08,
	FUPJPerTick:    0.4,
	StaticUWPerSeg: 120,
}

func (p Params) zero() bool { return p == Params{} }

// SegmentEnergy is the per-segment breakdown.
type SegmentEnergy struct {
	Segment   int
	BusItems  int64   // data items moved on this segment's bus
	BusPJ     float64 // bus transfer energy
	SAPJ      float64 // arbiter activity energy
	ComputePJ float64 // FU processing energy of hosted processes
}

// BUEnergy is the per-border-unit breakdown.
type BUEnergy struct {
	Name  string
	Items int64
	PJ    float64
}

// Report is the energy estimate of one emulated run.
type Report struct {
	Params    Params
	Segments  []SegmentEnergy
	BUs       []BUEnergy
	CAPJ      float64
	StaticPJ  float64 // static energy over the run duration
	DynamicPJ float64
	TotalPJ   float64
	AvgPowerM float64 // average power in milliwatts over the run
}

// Estimate derives the energy report for an emulation result. The
// model and platform must be the ones the emulation ran with.
func Estimate(m *psdf.Model, plat *platform.Platform, r *emulator.Report, params Params) (*Report, error) {
	pf, err := NewProfile(m, plat, params)
	if err != nil {
		return nil, err
	}
	return pf.Estimate(r), nil
}

// Estimate derives the energy report for an emulation result of the
// profiled pair, from the same run-independent traffic and compute
// attribution as LowerBoundPJ, which can therefore never exceed the
// total computed here.
func (pf *Profile) Estimate(r *emulator.Report) *Report {
	params := pf.params
	out := &Report{Params: params}
	var dynamic float64
	for _, seg := range pf.segOrder {
		se := SegmentEnergy{Segment: seg, BusItems: pf.busItems[seg]}
		se.BusPJ = float64(se.BusItems) * params.BusPJPerItem
		if sa := r.SA(seg); sa != nil {
			se.SAPJ = float64(sa.TCT) * params.SAPJPerTick
		}
		se.ComputePJ = float64(pf.compTicks[seg]) * params.FUPJPerTick
		dynamic += se.BusPJ + se.SAPJ + se.ComputePJ
		out.Segments = append(out.Segments, se)
	}
	for _, bu := range r.BUs {
		be := BUEnergy{Name: bu.Name, Items: bu.LoadTicks} // one load tick per item
		be.PJ = float64(be.Items) * params.BUPJPerItem
		dynamic += be.PJ
		out.BUs = append(out.BUs, be)
	}
	out.CAPJ = float64(r.CA.TCT) * params.CAPJPerTick
	dynamic += out.CAPJ

	runSeconds := float64(r.ExecutionTimePs) * 1e-12
	out.StaticPJ = params.StaticUWPerSeg * 1e-6 * float64(pf.segments) * runSeconds * 1e12
	out.DynamicPJ = dynamic
	out.TotalPJ = dynamic + out.StaticPJ
	if runSeconds > 0 {
		out.AvgPowerM = out.TotalPJ * 1e-12 / runSeconds * 1e3
	}
	return out
}

// String renders the energy breakdown.
func (r *Report) String() string {
	var b strings.Builder
	segs := make([]SegmentEnergy, len(r.Segments))
	copy(segs, r.Segments)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Segment < segs[j].Segment })
	for _, se := range segs {
		fmt.Fprintf(&b, "Segment %d: bus %.0fpJ (%d items), SA %.0fpJ, compute %.0fpJ\n",
			se.Segment, se.BusPJ, se.BusItems, se.SAPJ, se.ComputePJ)
	}
	for _, be := range r.BUs {
		fmt.Fprintf(&b, "%s: %.0fpJ (%d items crossed)\n", be.Name, be.PJ, be.Items)
	}
	fmt.Fprintf(&b, "CA: %.0fpJ\n", r.CAPJ)
	fmt.Fprintf(&b, "dynamic %.0fpJ + static %.0fpJ = total %.0fpJ (avg %.2fmW)\n",
		r.DynamicPJ, r.StaticPJ, r.TotalPJ, r.AvgPowerM)
	return b.String()
}
