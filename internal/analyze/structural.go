package analyze

import (
	"segbus/internal/dsl"
)

// The structural analyzer surfaces the existing dsl/psdf/platform
// validators behind their stable codes: PSDF well-formedness
// (SB001–SB010), platform constraints and mapping/role checks
// (SB020–SB032), and DSL-level consistency (SB040/SB041). It reports
// the run's admission (Pass.Pair), the very checks the emulator
// applies before a run, so an error here means the emulator would
// reject the model.
func init() {
	Register(&Analyzer{
		Name: "structural",
		Doc:  "PSDF, platform and DSL well-formedness (the emulator's admission checks)",
		Run:  runStructural,
	})
}

func runStructural(pass *Pass) {
	for _, d := range pass.Doc.ValidatePair(pass.Pair) {
		sev := SeverityError
		if d.Severity == dsl.SeverityWarning {
			sev = SeverityWarning
		}
		pass.Report(Diagnostic{
			Code:     d.Code,
			Severity: sev,
			Element:  d.Element,
			Message:  d.Message,
		})
	}
}
