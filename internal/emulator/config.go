// Package emulator implements the SegBus emulator: it executes a PSDF
// application model on a SegBus platform instance and reports the
// performance figures of section 4 of the paper — per-arbiter total
// clock ticks (TCT), intra/inter-segment request counts, border-unit
// package counts and tick totals, per-process start/end times, and the
// estimated total execution time.
//
// The emulator follows the basic concepts of section 3.3:
//
//   - the application schedule is extracted from the PSDF and enforced
//     by the arbiters (package sched);
//   - functional units are modeled as counters that "process" for the
//     flow's C ticks before each package send;
//   - execution times are measured from the start of the emulation;
//   - an array of process status flags marks process completion, and
//     the run ends when all flags are set and no arbiter has pending
//     activity;
//   - monitoring counters at the SAs, the CA and the BUs record clock
//     ticks and request counts.
//
// Timing factors the paper's emulator deliberately skips (clock-domain
// synchronisation at the BUs, SA grant setup, CA set/reset) are
// represented as a configurable Overheads value that defaults to zero.
// The refined model of package realplat re-enables them to act as the
// accuracy ground truth.
package emulator

import (
	"segbus/internal/obs"
	"segbus/internal/trace"
)

// Overheads configures the fine-grained timing factors of the bus
// protocol. The estimation model (the paper's emulator) runs with the
// zero value: those factors are skipped because they are small (2–3
// ticks) against a package transfer and largely overlap ongoing
// activity. The refined model charges them explicitly.
type Overheads struct {
	// GrantTicks is charged at the start of every granted bus
	// transaction: the SA setting the grant signal and the master
	// responding (segment clock domain).
	GrantTicks int

	// SyncTicks is the clock-domain synchronisation cost at a border
	// unit, charged once when a package has been loaded (writer-side
	// domain) and once before it is unloaded (reader-side domain).
	// The paper parameterises this at two clock ticks per crossing.
	SyncTicks int

	// CASetTicks is charged on the CA clock for setting the grant
	// signal of an inter-segment transfer; requests serialise on the
	// CA while it is charged.
	CASetTicks int

	// CAResetTicks is charged on the CA clock for resetting the grant
	// signal when the source segment finishes its part of an
	// inter-segment transfer.
	CAResetTicks int
}

// Zero reports whether no overhead is charged (the estimation model).
func (o Overheads) Zero() bool {
	return o == Overheads{}
}

// Policy selects how a segment arbiter picks among simultaneous bus
// requests. The platform's SAs are implementation-defined in this
// respect ("the SA decides which device will get access in the
// following transfer burst"); the emulator exposes the choice so its
// impact can be measured.
type Policy int

// Arbitration policies.
const (
	// PolicyBUFirst (the default) serves border-unit forwards before
	// master requests, then FIFO by request time: in-flight packages
	// drain before new ones enter, which keeps the BU waiting periods
	// minimal.
	PolicyBUFirst Policy = iota

	// PolicyFIFO serves strictly by request time regardless of the
	// requester kind.
	PolicyFIFO

	// PolicyFixedPriority emulates a daisy-chain arbiter: the
	// requester with the lowest identity wins (border units outrank
	// masters, then lower process ids), ties broken by request time.
	PolicyFixedPriority
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyBUFirst:
		return "bu-first"
	case PolicyFIFO:
		return "fifo"
	case PolicyFixedPriority:
		return "fixed-priority"
	}
	return "Policy(?)"
}

// Config tunes an emulation run.
type Config struct {
	// Overheads selects the timing model; the zero value is the
	// paper's estimation model.
	Overheads Overheads

	// Policy selects the segment arbiters' selection rule among
	// simultaneous requests; the zero value is PolicyBUFirst.
	Policy Policy

	// DetectTicks is the number of CA clock ticks the monitor takes to
	// detect end of emulation after the last platform activity (the
	// MonitorClass scanning the process status flags). It is included
	// in the CA's total clock ticks.
	DetectTicks int64

	// Trace, when non-nil, records per-element busy intervals and
	// point events for the Figure 10/11 renderings.
	Trace *trace.Trace

	// Metrics, when non-nil, receives the run's monitoring counters:
	// arbiter grants/denials by policy, border-unit occupancy ticks,
	// per-segment contention-wait histograms, engine events and the
	// simulated-time rate. Handles are resolved once per run; a nil
	// registry costs one branch per update (see internal/obs). The
	// registry may be shared across runs (values accumulate) and
	// across concurrent workers.
	Metrics *obs.Registry

	// Observer, when non-nil, receives emulation events as they
	// happen (see Observer).
	Observer Observer

	// StepLimit bounds the number of simulation events as a livelock
	// guard. Zero selects a generous default proportional to the
	// workload.
	StepLimit uint64
}

// DefaultDetectTicks is the monitor detection latency used when
// Config.DetectTicks is zero.
const DefaultDetectTicks = 4

// MaxTicks bounds Config.DetectTicks and every Overheads field. At the
// slowest clock a scheme can declare (1 Hz, a 10¹² ps period) a delay
// of MaxTicks cycles spans 1.05·10¹⁸ ps, under an eighth of the int64
// picosecond range: adding one to a simulated time cannot wrap it, and
// the CA's detect ticks cannot turn its execution time negative.
const MaxTicks = 1 << 20

// Event-ordering priorities within one picosecond: transaction effects
// land first, then FU compute completions, then grant decisions — so a
// grant decision always observes every request raised at that instant.
const (
	prioEffect  = 0
	prioCompute = 1
	prioGrant   = 2
)

// Observer receives emulation events as they happen, for custom
// instrumentation beyond the built-in trace (statistics collectors,
// live visualisation, protocol checkers). All callbacks run on the
// simulation goroutine in deterministic order; implementations must
// not retain the emulator's internal state. A nil Observer field
// disables the hooks at zero cost.
type Observer interface {
	// StageStarted fires when a schedule stage becomes eligible.
	StageStarted(order int, atPs int64)
	// TransferGranted fires when a segment arbiter grants its bus
	// (master transfers, border-unit fills and forwards alike).
	TransferGranted(segment int, atPs int64)
	// PackageDelivered fires when a package reaches its destination.
	PackageDelivered(source, target int, pkg int, atPs int64)
}
