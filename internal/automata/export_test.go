package automata

// ProductOracle returns the breadth-first product search's outcome at
// the given state budget, shaped like Check's, with the encoded stuck
// state and the number of states visited; ok is false when the budget
// ran out before a verdict.
func (s *System) ProductOracle(budget int) (res *Result, stuck string, states int, ok bool) {
	p := s.exploreProduct(budget)
	switch {
	case !p.decided:
		return nil, "", p.states, false
	case p.verdict == Terminates:
		return &Result{Verdict: Terminates}, "", p.states, true
	}
	return s.result(p.trace, p.stuck), string(p.stuck), p.states, true
}

// ReducedOracle returns the flush-priority greedy run's outcome and
// its encoded final state.
func (s *System) ReducedOracle() (*Result, string) {
	trace, final := s.runReduced()
	return s.result(trace, final), string(final)
}

// ReplayState replays trace as Replay does and returns the encoded
// state it reaches.
func (s *System) ReplayState(trace []Action) (string, error) {
	st, err := s.replay(trace)
	return string(st), err
}
