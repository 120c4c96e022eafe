package segbus

import (
	"segbus/internal/codegen"
	"segbus/internal/power"
	"segbus/internal/sched"
	"segbus/internal/stats"
	"segbus/internal/sweep"
)

// Extensions beyond the paper's core technique: arbiter code
// generation (the paper's stated future work, section 5) and
// activity-based energy estimation (the power angle its conclusion
// raises via its reference [9]).

type (
	// ArbiterProgram is a generated arbitration schedule: per-SA grant
	// programs plus the CA's connection schedule.
	ArbiterProgram = codegen.Program
	// Grant is one segment-arbiter grant slot.
	Grant = codegen.Grant
	// CAGrant is one central-arbiter connection slot.
	CAGrant = codegen.CAGrant
	// EnergyParams are per-event energy coefficients.
	EnergyParams = power.Params
	// EnergyReport is an activity-based energy estimate.
	EnergyReport = power.Report
)

// Sensitivity analysis and congestion diagnostics.
type (
	// Curve is a one-parameter sensitivity series.
	Curve = sweep.Curve
	// SweepPoint is one sample of a Curve.
	SweepPoint = sweep.Point
	// Congestion quantifies a border unit as a bottleneck.
	Congestion = stats.Congestion
)

// SweepPackageSizes estimates the configuration once per package size.
func SweepPackageSizes(m *Model, base *Platform, sizes []int) Curve {
	return sweep.PackageSizes(m, base, sizes)
}

// SweepHeaderTicks estimates once per per-package protocol cost.
func SweepHeaderTicks(m *Model, base *Platform, ticks []int) Curve {
	return sweep.HeaderTicks(m, base, ticks)
}

// SweepCAHopTicks estimates once per CA chain set-up cost.
func SweepCAHopTicks(m *Model, base *Platform, ticks []int) Curve {
	return sweep.CAHopTicks(m, base, ticks)
}

// SweepSegmentClock estimates once per clock frequency of the given
// 1-based segment.
func SweepSegmentClock(m *Model, base *Platform, segment int, clocks []Hz) (Curve, error) {
	return sweep.SegmentClock(m, base, segment, clocks)
}

// Congestions ranks a report's border units by waiting share, worst
// first — the traffic-congestion analysis the paper's conclusion asks
// the designer to perform.
func Congestions(r *Report) []Congestion { return stats.Congestions(r) }

// CongestionReport renders the congestion ranking with verdicts.
func CongestionReport(r *Report) string { return stats.CongestionReport(r) }

// GenerateArbiters derives the arbiter grant programs that implement
// the application schedule on the given platform. Render the result
// with its Listing (human-readable) or VHDL (synthesizable skeleton)
// methods.
func GenerateArbiters(m *Model, p *Platform) (*ArbiterProgram, error) {
	return codegen.Generate(sched.NewPair(m, p))
}

// EstimateEnergy derives an activity-based energy estimate for an
// emulation report. Pass the zero EnergyParams to use the default
// coefficients.
func EstimateEnergy(m *Model, p *Platform, r *Report, params EnergyParams) (*EnergyReport, error) {
	return power.Estimate(m, p, r, params)
}
