package analyze

import (
	"errors"

	"segbus/internal/automata"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// oracleExactReachability is the exact reachability check that builds
// the automata product for every pair and takes its verdict from
// automata.Check. checkExactReachability must report exactly what it
// reports: the fixpoint only decides when the product is needed.
func oracleExactReachability(pass *Pass) {
	sys, err := automata.Compile(pass.Model, pass.Platform)
	if err != nil {
		if errors.Is(err, automata.ErrTooLarge) {
			pass.Reportf(CodeBudgetExhausted, SeverityInfo, "model",
				"exact reachability analysis skipped: %v", err)
		}
		return
	}
	reportCheck(pass, sys.Check(automata.Options{}))
}

// reportCheck is checkExactReachability's reporting of a check's
// outcome, for the oracles.
func reportCheck(pass *Pass, res *automata.Result) {
	switch res.Verdict {
	case automata.Inconclusive:
		pass.Reportf(CodeBudgetExhausted, SeverityInfo, "model",
			"exact reachability analysis inconclusive: state budget (%d) exhausted after %d state(s); heuristic cycle analysis applies",
			res.Budget, res.States)
	case automata.Deadlocks:
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
}

// ExactReachability returns the diagnostics the exact reachability
// check reports for the pair.
func ExactReachability(m *psdf.Model, plat *platform.Platform) []Diagnostic {
	return runCheck(checkExactReachability, m, plat)
}

// OracleExactReachability returns the diagnostics the product-only
// oracle reports for the pair.
func OracleExactReachability(m *psdf.Model, plat *platform.Platform) []Diagnostic {
	return runCheck(oracleExactReachability, m, plat)
}

func runCheck(check func(*Pass), m *psdf.Model, plat *platform.Platform) []Diagnostic {
	pass := &Pass{Model: m, Platform: plat, Pair: sched.NewPair(m, plat), analyzer: "liveness", result: &Result{}}
	check(pass)
	return pass.result.Diagnostics
}
