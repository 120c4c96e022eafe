package automata

// productOutcome is the result of one breadth-first product
// exploration.
type productOutcome struct {
	verdict Verdict  // Terminates, Deadlocks or Inconclusive (budget)
	states  int      // distinct states visited
	trace   []Action // shortest path into the stuck state (Deadlocks)
	stuck   []byte   // the stuck state itself (Deadlocks)
}

// stateRec is one discovered state of the exploration graph: its
// encoded form plus the predecessor edge used for trace
// reconstruction.
type stateRec struct {
	key  string
	pred int32 // index of the predecessor state (-1 for the root)
	act  Action
}

// exploreProduct runs the exhaustive breadth-first exploration of the
// product: an iterative worklist (frontier levels) with hashed state
// deduplication, stopping at the first stuck state (which, in level
// order, is one of minimal depth — its predecessor chain is a
// shortest counterexample trace) or when the distinct-state budget is
// exhausted. The frontier is expanded in order and the per-state
// successor enumeration is fixed, so the discovery order — and
// therefore the reported trace — is deterministic.
func (s *System) exploreProduct(budget int) productOutcome {
	root := s.initial()
	visited := make(map[string]int32, 1024)
	states := []stateRec{{key: string(root), pred: -1}}
	visited[states[0].key] = 0

	frontier := []int32{0}
	for len(frontier) > 0 {
		var next []int32
		for _, id := range frontier {
			st := []byte(states[id].key)
			full := false
			n := s.succ(st, func(a Action, ns []byte) {
				if full {
					return
				}
				if _, ok := visited[string(ns)]; ok {
					return
				}
				if len(states) >= budget {
					full = true
					return
				}
				nid := int32(len(states))
				states = append(states, stateRec{key: string(ns), pred: id, act: a})
				visited[states[nid].key] = nid
				next = append(next, nid)
			})
			if full {
				return productOutcome{verdict: Inconclusive, states: len(states)}
			}
			if n == 0 && !s.done(st) {
				return productOutcome{
					verdict: Deadlocks,
					states:  len(states),
					trace:   s.rebuildTrace(states, id),
					stuck:   []byte(states[id].key),
				}
			}
		}
		frontier = next
	}
	return productOutcome{verdict: Terminates, states: len(states)}
}

// rebuildTrace walks the predecessor chain from state id back to the
// root and returns the action sequence in forward order.
func (s *System) rebuildTrace(states []stateRec, id int32) []Action {
	var rev []Action
	for cur := id; states[cur].pred >= 0; cur = states[cur].pred {
		rev = append(rev, states[cur].act)
	}
	out := make([]Action, len(rev))
	for i, a := range rev {
		out[len(rev)-1-i] = a
	}
	return out
}
