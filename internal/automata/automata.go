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
// phase), packed into a compact byte string whose hash deduplicates
// visited states.
//
// # Exact exploration
//
// Two explorers run over the product:
//
//   - a reduced run: bus arbitration order and border-unit buffering
//     only affect timing, never progress — the firing gates are
//     monotone in the delivered-package counts, so the system is
//     persistent and every maximal run delivers the same package set
//     (a Kahn least fixpoint). One greedy maximal run therefore
//     decides deadlock-versus-termination exactly, in time linear in
//     the package count;
//   - a breadth-first product exploration: an iterative worklist with
//     hashed state deduplication and a configurable state budget,
//     used to find a shortest action trace into the stuck
//     configuration and as the ground truth the reduced run is
//     cross-checked against (see FuzzProduct). It runs serially on
//     the caller's goroutine: a server gets its concurrency from
//     requests, not from one request's search.
//
// The same fixpoint can be computed over integer counts alone, without
// the product (sched.Schedule.Drains); the liveness analyzer reads its
// verdict there and compiles only a stalling schedule (ScheduleOf,
// then CompileSchedule), so the product builds the counterexample and
// serves as the fixpoint's oracle.
//
// Segments hosting no emitting process are inert — their bus
// automaton has a single state — and are pruned from the product
// before exploration (the symmetry reduction for identical idle
// segments; the count of pruned segments is reported in Result).
package automata

import (
	"fmt"

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
func (a Action) String() string {
	switch a.Kind {
	case ActStart:
		return fmt.Sprintf("%s starts computing package %d/%d of %s->%s (order %d)",
			a.Proc, a.Pkg, a.Pkgs, a.Flow.Source, a.Flow.Target, a.Flow.Order)
	case ActRequest:
		return fmt.Sprintf("%s finishes package %d/%d of %s->%s and requests the segment %d bus",
			a.Proc, a.Pkg, a.Pkgs, a.Flow.Source, a.Flow.Target, a.Seg)
	case ActGrant:
		return fmt.Sprintf("SA%d grants the segment %d bus to %s", a.Seg, a.Seg, a.Proc)
	case ActDeliver:
		return fmt.Sprintf("%s delivers package %d/%d of %s->%s", a.Proc, a.Pkg, a.Pkgs, a.Flow.Source, a.Flow.Target)
	}
	return fmt.Sprintf("Action(%d)", int(a.Kind))
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

	// Inconclusive: the state budget was exhausted before a verdict;
	// callers should fall back to heuristic analysis.
	Inconclusive
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Terminates:
		return "terminates"
	case Deadlocks:
		return "deadlocks"
	case Inconclusive:
		return "inconclusive"
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

// DefaultStateBudget is the product-state budget of a Check when
// Options.StateBudget is zero: large enough for every model the
// conform generator emits, small enough to stay interactive.
const DefaultStateBudget = 1 << 17

// Options tunes an exact reachability check.
type Options struct {
	// StateBudget caps the number of distinct product states visited
	// across both explorers; zero selects DefaultStateBudget. When
	// the budget is exhausted the verdict is Inconclusive.
	StateBudget int
}

// Result is the outcome of an exact reachability check.
type Result struct {
	Verdict Verdict

	// States is the number of distinct product states visited across
	// the reduced run and the breadth-first exploration; Budget is
	// the cap that applied.
	States int
	Budget int

	// Trace is the action sequence from the initial state into a
	// stuck state (Deadlocks only). Minimal marks a shortest trace
	// found by the exhaustive product exploration; when the budget
	// ran out mid-search the trace of the reduced maximal run is kept
	// and Minimal is false.
	Trace   []Action
	Minimal bool

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

	// PrunedSegments counts the inert segments removed from the
	// product by the symmetry reduction (segments hosting no
	// emitting process).
	PrunedSegments int
}

// TraceStrings renders the counterexample trace one line per action.
func (r *Result) TraceStrings() []string {
	if len(r.Trace) == 0 {
		return nil
	}
	out := make([]string, len(r.Trace))
	for i, a := range r.Trace {
		out[i] = a.String()
	}
	return out
}

// Entry is one package emission of an emitter's program, with the
// firing gate the schedule assigns it (sched.Schedule.Need).
type Entry struct {
	Flow sched.FlowID
	Pkg  int // 1-based package index within the flow
	Need int // input packages the firing gate requires first
}

// System is a compiled product: the per-process automata programs,
// the segment mapping and the stage structure, ready for
// exploration. Compile builds one; a System is immutable and safe
// for concurrent use.
type System struct {
	sch       *sched.Schedule
	procs     []psdf.ProcessID // ascending; index is the state slot
	procIdx   map[psdf.ProcessID]int
	segOf     []int // per proc index, 1-based hosting segment
	programs  [][]Entry
	emitters  []int // proc indices with non-empty programs, ascending
	numStages int
	pruned    int // inert segments removed by the symmetry reduction
}

// NumEmitters returns the number of non-trivial process automata in
// the product.
func (s *System) NumEmitters() int { return len(s.emitters) }

// PrunedSegments returns the number of inert segments the symmetry
// reduction removed from the product.
func (s *System) PrunedSegments() int { return s.pruned }

// Schedule returns the extracted schedule the system was compiled
// against.
func (s *System) Schedule() *sched.Schedule { return s.sch }
