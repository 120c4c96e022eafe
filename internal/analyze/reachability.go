package analyze

import (
	"errors"
	"fmt"
	"strings"

	"segbus/internal/automata"
)

// Stable diagnostic codes of the exact reachability check.
const (
	// CodeDeadlockState flags a model whose schedule reaches a state
	// where no process can fire while packages remain undelivered,
	// proven by the exact check of the communicating-automata product
	// (error). The diagnostic carries a minimal counterexample trace,
	// printable with segbus-vet -why SB050.
	CodeDeadlockState = "SB050"

	// CodeNeverFires flags a process whose first emission's firing
	// gate is unsatisfiable in every run of the schedule: the process
	// can never fire (error). Reported alongside SB050 for each
	// permanently starved process.
	CodeNeverFires = "SB051"

	// CodeExactSkipped reports that the model exceeds the product
	// encoding's caps, so the exact check was skipped (info). The
	// heuristic cycle analysis (SB101) remains the authority for such
	// models.
	CodeExactSkipped = "SB052"
)

// checkExactReachability decides deadlock-versus-termination of the
// model and platform exactly. It complements the SB101 heuristic:
// cycles the heuristic can only grade as suspicious are either proven
// to deadlock here (SB050/SB051, with a counterexample) or exonerated.
// The verdict comes from the schedule's closed-form fixpoint
// (sched.Schedule.Drains); only a schedule that stalls is compiled
// into the communicating-automata product (internal/automata), whose
// one greedy run builds the counterexample. Models the validators
// reject are skipped silently — the structural analyzer already owns
// those findings — and a model too large for the product encoding
// degrades to an SB052 note, leaving the heuristics in charge.
func checkExactReachability(pass *Pass) {
	sch, err := automata.ScheduleOf(pass.Pair)
	if err != nil {
		if errors.Is(err, automata.ErrTooLarge) {
			pass.Reportf(CodeExactSkipped, SeverityInfo, "model",
				"exact reachability analysis skipped: %v", err)
		}
		return
	}
	if sch.Drains() {
		return
	}
	sys, err := automata.CompileSchedule(pass.Model, pass.Platform, sch)
	if err != nil {
		return
	}
	reportDeadlock(pass, sys.Check())
}

// reportDeadlock reports a check's Deadlocks outcome: SB050 with the
// counterexample, and SB051 for every process that can never fire.
func reportDeadlock(pass *Pass, res *automata.Result) {
	if res.Verdict != automata.Deadlocks {
		return
	}
	pass.Report(Diagnostic{
		Code:     CodeDeadlockState,
		Severity: SeverityError,
		Element:  deadlockElement(res),
		Message:  deadlockMessage(res),
		Trace:    res.TraceStrings(),
	})
	for _, nf := range res.NeverFired {
		pass.Reportf(CodeNeverFires, SeverityError, nf.Proc.String(),
			"%s can never fire: package %d of %s needs %d input package(s) before emission, but at most %d ever arrive",
			nf.Proc, nf.Pkg, nf.Flow, nf.Need, nf.Have)
	}
}

// deadlockElement picks the model element an SB050 finding highlights:
// the first blocked process, or the whole model if none was singled
// out.
func deadlockElement(res *automata.Result) string {
	if len(res.Blocked) > 0 {
		return res.Blocked[0].Proc.String()
	}
	return "model"
}

// deadlockMessage renders the SB050 one-liner, mirroring the
// emulator's deadlock report so vet and emulation diagnose alike.
func deadlockMessage(res *automata.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule reaches a deadlock state: stuck at stage %d (order %d) with %d package(s) undelivered",
		res.StuckStage, res.StuckOrder, res.Undelivered)
	for _, bl := range res.Blocked {
		fmt.Fprintf(&b, "; %s blocked (needs %d input packages, has %d)", bl.Proc, bl.Need, bl.Have)
	}
	fmt.Fprintf(&b, "; minimal counterexample of %d action(s) attached", len(res.Trace))
	return b.String()
}
