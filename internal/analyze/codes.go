package analyze

// CodeInfo documents one stable diagnostic code for -codes listings
// and the DESIGN.md table.
type CodeInfo struct {
	Code     string
	Severity Severity
	Summary  string
}

// CodeTable returns every stable diagnostic code the tool chain can
// emit, in code order. Codes are append-only: a code is never reused
// or renumbered once released, so CI suppressions stay valid.
func CodeTable() []CodeInfo {
	return []CodeInfo{
		// Structural: PSDF well-formedness (internal/psdf).
		{"SB001", SeverityError, "model has no processes"},
		{"SB002", SeverityError, "model has no flows"},
		{"SB003", SeverityError, "flow carries a non-positive data item count"},
		{"SB004", SeverityError, "flow has a negative ordering number"},
		{"SB005", SeverityError, "flow has a negative per-package tick count"},
		{"SB006", SeverityError, "flow is a self-loop"},
		{"SB007", SeverityError, "duplicate flow (same source, target and ordering number)"},
		{"SB008", SeverityError, "process is isolated (no incoming or outgoing flow)"},
		{"SB009", SeverityError, "process is not reachable from any initial node"},
		{"SB010", SeverityError, "flow is ordered before every flow feeding its source"},
		// Structural: platform constraints (internal/platform).
		{"SB020", SeverityError, "platform has no segments"},
		{"SB021", SeverityError, "non-positive package size"},
		{"SB022", SeverityError, "non-positive CA clock frequency"},
		{"SB023", SeverityError, "negative header tick count"},
		{"SB024", SeverityError, "negative CA hop tick count"},
		{"SB025", SeverityError, "segment index out of sequence"},
		{"SB026", SeverityError, "non-positive segment clock frequency"},
		{"SB027", SeverityError, "segment hosts no functional unit"},
		{"SB028", SeverityError, "process hosted by more than one segment"},
		{"SB029", SeverityError, "application process not mapped to any segment"},
		{"SB030", SeverityError, "platform hosts a process that is not part of the application"},
		{"SB031", SeverityError, "flow source's FU has no master interface"},
		{"SB032", SeverityError, "flow target's FU has no slave interface"},
		// Structural: DSL-level consistency (internal/dsl).
		{"SB040", SeverityError, "declared stereotype contradicts the flow structure"},
		{"SB041", SeverityWarning, "platform package size differs from the model's nominal"},
		// Exact reachability (communicating-automata product).
		{"SB050", SeverityError, "schedule reaches a deadlock state (minimal counterexample attached; see -why SB050)"},
		{"SB051", SeverityError, "process can never fire: its first emission's gate is unsatisfiable in every run"},
		{"SB052", SeverityInfo, "exact reachability analysis skipped: model exceeds the product encoding's caps; heuristics apply"},
		// Liveness.
		{"SB101", SeverityError, "flows of one ordering number form a dependency cycle (error when it provably deadlocks, warning otherwise)"},
		{"SB102", SeverityWarning, "input flow arrives after its target's last emission"},
		{"SB103", SeverityWarning, "no flow path from the process reaches a final node"},
		// Static performance bounds.
		{"SB201", SeverityInfo, "static execution-time bounds summary"},
		// Congestion / placement.
		{"SB301", SeverityWarning, "border-unit crossing-traffic imbalance"},
		{"SB302", SeverityWarning, "segment bus-load imbalance"},
		{"SB303", SeverityInfo, "multi-segment platform with no inter-segment traffic"},
	}
}
