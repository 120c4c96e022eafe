package automata

// ExploreProduct exposes the breadth-first product explorer to the
// external test package, so the reduced run's verdict can be
// cross-checked against the exhaustive ground truth.
func (s *System) ExploreProduct(budget int) (Verdict, int) {
	p := s.exploreProduct(budget)
	return p.verdict, p.states
}

// RunReduced exposes the greedy maximal run's raw outcome.
func (s *System) RunReduced(budget int) (terminated, exhausted bool, steps int) {
	out := s.runReduced(budget)
	return out.terminated, out.exhausted, out.steps
}
