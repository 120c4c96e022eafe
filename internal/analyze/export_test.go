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
			pass.Reportf(CodeExactSkipped, SeverityInfo, "model",
				"exact reachability analysis skipped: %v", err)
		}
		return
	}
	reportDeadlock(pass, sys.Check())
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
