package automata

// The breadth-first product search below is the test oracle of Check:
// it explores every interleaving of the product, so it checks the
// persistence argument behind the one greedy run instead of relying on
// it (TestGreedyMatchesProductOracle, FuzzProduct).

// productOutcome is the result of one breadth-first product
// exploration.
type productOutcome struct {
	decided bool     // false when the state budget ran out first
	verdict Verdict  // Terminates or Deadlocks (decided only)
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
				return productOutcome{states: len(states)}
			}
			if n == 0 && !s.done(st) {
				return productOutcome{
					decided: true,
					verdict: Deadlocks,
					states:  len(states),
					trace:   s.rebuildTrace(states, id),
					stuck:   st,
				}
			}
		}
		frontier = next
	}
	return productOutcome{decided: true, verdict: Terminates, states: len(states)}
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

// succ enumerates the successors of st in the fixed deterministic
// order (ascending emitter index) and returns how many transitions
// were enabled. A state with zero successors is either done (every
// stage complete) or stuck — a reachable deadlock.
func (s *System) succ(st []byte, yield func(a Action, ns []byte)) int {
	n := 0
	for ei := range s.emitters {
		if !s.enabled(st, ei) {
			continue
		}
		n++
		ns := append([]byte(nil), st...)
		yield(s.apply(ns, ei), ns)
	}
	return n
}
