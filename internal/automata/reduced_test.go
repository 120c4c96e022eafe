package automata

// runReduced drives one greedy maximal run of the product that, at
// every state, prefers to flush in-flight work (deliver, then grant,
// then request) before starting new computations. It is a second
// oracle of the persistence argument: it fires in a different order
// than Check's lowest-index run, so by persistence it must take as
// many steps and end in the same state. It returns the run's trace
// and final state.
func (s *System) runReduced() ([]Action, []byte) {
	st := s.initial()
	var trace []Action
	// Flush priority: later phases first, so traces read like a
	// serialised schedule and the bus is free whenever a grant fires.
	prio := []Phase{Transferring, RequestingBus, Computing, Waiting}
	for {
		fired := false
		for _, ph := range prio {
			for ei := range s.emitters {
				if s.phase(st, ei) != ph || !s.enabled(st, ei) {
					continue
				}
				trace = append(trace, s.apply(st, ei))
				fired = true
				break
			}
			if fired {
				break
			}
		}
		if !fired {
			return trace, st // done, or stuck in a reachable deadlock
		}
	}
}
