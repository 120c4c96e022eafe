// Package automata compiles a PSDF application model plus its
// platform mapping into a composition of communicating finite
// automata and decides schedule liveness by exact reachability over
// their product — the "compositional model semantics" step of the
// roadmap: liveness becomes a decidable question with counterexample
// traces instead of a lint guess.
//
// # Automata encoding
//
// Every emitting process (a functional-unit master) is one automaton
// cycling through four phases per emission program entry:
//
//	Waiting ──start──▶ Computing ──request──▶ RequestingBus
//	   ▲                                           │ grant
//	   └───────────── deliver ◀── Transferring ◀───┘
//
// The emission program follows the order the emulator emits in: the
// model's flows in canonical order, one entry per package. Each entry
// is gated by the per-order packet-SDF firing rule, read from package
// sched (sched.Schedule.Need), the same gate the emulator enforces: a
// package may start only when its stage is active and the process has
// received `need` input packages. Per-segment bus automata synchronise
// on the grant action — at most one master per segment holds the bus
// between its grant and its delivery — and deliveries synchronise the
// sender's automaton with the receiver's package counter and with the
// global stage automaton, which advances when a stage's package count
// reaches zero.
//
// A product state is therefore (stage, packages left in stage,
// per-process received counters, per-emitter program counter and
// phase), packed into a compact byte string.
//
// # Exact checking
//
// Bus arbitration order and border-unit buffering only affect timing,
// never progress: the firing gates are monotone in the
// delivered-package counts, so the product is persistent — firing one
// enabled transition never disables another. In a persistent
// deterministic system every maximal run is a permutation of the
// others, so every run has the same length and ends in the same state
// (Landweber & Robertson, "Properties of conflict-free and persistent
// Petri nets", JACM 1978). Check therefore drives one greedy maximal
// run that fires the lowest-index enabled emitter at each step. The
// run decides deadlock-versus-termination exactly. Each action
// advances one emitter's (program counter, phase), so a run takes at
// most four steps per package, and every trace into the one stuck
// state has the same length: the run's trace is a minimal
// counterexample, the lexicographically least one, which a
// breadth-first product search expanding emitters in index order also
// finds. That exhaustive search is kept in the tests as the oracle of
// this argument (TestGreedyMatchesProductOracle, FuzzProduct).
//
// The same fixpoint can be computed over integer counts alone, without
// the product (sched.Schedule.Drains); the liveness analyzer reads its
// verdict there and compiles only a stalling schedule (ScheduleOf,
// then CompileSchedule), so the product builds the counterexample.
//
// Segments hosting no emitting process are inert: their bus automaton
// has a single state, and the grant rule only ever inspects emitters.
package automata

import (
	"fmt"
	"strconv"

	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// Phase is the control location of one emitter automaton.
type Phase uint8

// Emitter phases, in the order they cycle.
const (
	Waiting       Phase = iota // gated on stage activation and received inputs
	Computing                  // processing the package (C ticks in the emulator)
	RequestingBus              // compute done, bus request raised at the SA
	Transferring               // bus granted, package in flight to its target
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case Waiting:
		return "waiting-on-flow"
	case Computing:
		return "computing"
	case RequestingBus:
		return "requesting-bus"
	case Transferring:
		return "transferring"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// ActionKind labels one product transition.
type ActionKind uint8

// Product actions.
const (
	ActStart   ActionKind = iota // Waiting -> Computing (firing gate satisfied)
	ActRequest                   // Computing -> RequestingBus (compute done)
	ActGrant                     // RequestingBus -> Transferring (SA grant)
	ActDeliver                   // Transferring -> Waiting (package delivered)
)

// Action is one step of a counterexample trace: a transition of one
// emitter automaton, synchronised with the bus and stage automata as
// described in the package comment. It is self-contained so traces
// render without the System that produced them.
type Action struct {
	Kind ActionKind
	Proc psdf.ProcessID // the emitting process
	Flow psdf.Flow      // the flow the package belongs to
	Pkg  int            // 1-based package index within the flow
	Pkgs int            // total packages of the flow
	Seg  int            // the emitter's segment (1-based)
}

// String renders the action as one human-readable trace line.
func (a Action) String() string { return string(a.appendText(nil)) }

// appendText appends the action's trace line to b. It writes with
// strconv rather than fmt: a counterexample can run to 2¹⁷ lines.
func (a Action) appendText(b []byte) []byte {
	switch a.Kind {
	case ActStart:
		b = append(appendProc(b, a.Proc), " starts computing package "...)
		b = append(a.appendPackage(b), " (order "...)
		return append(strconv.AppendInt(b, int64(a.Flow.Order), 10), ')')
	case ActRequest:
		b = append(appendProc(b, a.Proc), " finishes package "...)
		b = append(a.appendPackage(b), " and requests the segment "...)
		return append(strconv.AppendInt(b, int64(a.Seg), 10), " bus"...)
	case ActGrant:
		b = append(strconv.AppendInt(append(b, "SA"...), int64(a.Seg), 10), " grants the segment "...)
		b = append(strconv.AppendInt(b, int64(a.Seg), 10), " bus to "...)
		return appendProc(b, a.Proc)
	case ActDeliver:
		b = append(appendProc(b, a.Proc), " delivers package "...)
		return a.appendPackage(b)
	}
	return fmt.Appendf(b, "Action(%d)", int(a.Kind))
}

// appendPackage appends "<pkg>/<pkgs> of <source>-><target>".
func (a Action) appendPackage(b []byte) []byte {
	b = append(strconv.AppendInt(b, int64(a.Pkg), 10), '/')
	b = append(strconv.AppendInt(b, int64(a.Pkgs), 10), " of "...)
	b = append(appendProc(b, a.Flow.Source), "->"...)
	return appendProc(b, a.Flow.Target)
}

// appendProc appends p as psdf.ProcessID.String renders it.
func appendProc(b []byte, p psdf.ProcessID) []byte {
	return strconv.AppendInt(append(b, 'P'), int64(p), 10)
}

// Verdict is the outcome of an exact reachability check.
type Verdict int

// Check outcomes.
const (
	// Terminates: every maximal run of the product delivers all
	// packages; no deadlock state is reachable.
	Terminates Verdict = iota

	// Deadlocks: a stuck state — no transition enabled, packages
	// undelivered — is reachable. Result.Trace leads into it.
	Deadlocks
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Terminates:
		return "terminates"
	case Deadlocks:
		return "deadlocks"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Blocked describes one emitter that cannot make progress in the
// stuck configuration: its next program entry and the firing-gate
// arithmetic that keeps it waiting.
type Blocked struct {
	Proc psdf.ProcessID
	Flow psdf.Flow // flow of the blocked program entry
	Pkg  int       // 1-based package index of the blocked entry
	Need int       // input packages required by the firing gate
	Have int       // input packages actually received
}

// Result is the outcome of an exact reachability check.
type Result struct {
	Verdict Verdict

	// Trace is the greedy run's action sequence from the initial state
	// into the stuck state (Deadlocks only): a minimal counterexample.
	Trace []Action

	// Stuck-state detail (Deadlocks only): the stage the schedule
	// stalls in and the emitters blocked there.
	StuckStage  int
	StuckOrder  int
	Undelivered int
	Blocked     []Blocked

	// NeverFired lists emitters that cannot start even their first
	// emission in any run (the gates are monotone, so a process that
	// never fires in the maximal run never fires at all). Each entry
	// carries the first program entry's gate arithmetic.
	NeverFired []Blocked
}

// TraceStrings renders the counterexample trace one line per action.
func (r *Result) TraceStrings() []string {
	if len(r.Trace) == 0 {
		return nil
	}
	out := make([]string, len(r.Trace))
	var line []byte
	for i, a := range r.Trace {
		line = a.appendText(line[:0])
		out[i] = string(line)
	}
	return out
}

// entry is one package emission of an emitter's program, with the
// firing gate the schedule assigns it (sched.Schedule.Need).
type entry struct {
	Flow sched.FlowID
	Pkg  int // 1-based package index within the flow
	Need int // input packages the firing gate requires first
}

// System is a compiled product: the per-process automata programs,
// the segment mapping and the stage structure, ready for checking.
// Compile builds one; a System is immutable and safe for concurrent
// use.
type System struct {
	sch       *sched.Schedule
	procs     []psdf.ProcessID // ascending; index is the state slot
	procIdx   map[psdf.ProcessID]int
	segOf     []int // per proc index, 1-based hosting segment
	programs  [][]entry
	emitters  []int // proc indices with non-empty programs, ascending
	numStages int
}

// Schedule returns the extracted schedule the system was compiled
// against.
func (s *System) Schedule() *sched.Schedule { return s.sch }
