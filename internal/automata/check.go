package automata

import (
	"bytes"
	"fmt"
)

// Check decides, exactly, whether the compiled product can deadlock.
//
// The reduced (greedy maximal) run delivers the verdict: by the
// persistence argument in runReduced's comment it terminates if and
// only if every run does. When it sticks, the breadth-first product
// exploration is launched to find a shortest action trace into the
// stuck configuration; if that search exhausts the state budget the
// reduced run's own trace is kept (Minimal=false). A reduced run that
// exhausts the budget — possible only for models near the encoding
// limits — yields Inconclusive, and callers fall back to heuristics.
func (s *System) Check(opts Options) *Result {
	budget := opts.StateBudget
	if budget <= 0 {
		budget = DefaultStateBudget
	}
	res := &Result{Budget: budget, PrunedSegments: s.pruned}

	red := s.runReduced(budget)
	res.States = red.steps + 1
	switch {
	case red.exhausted:
		res.Verdict = Inconclusive
		return res
	case red.terminated:
		res.Verdict = Terminates
		return res
	}

	res.Verdict = Deadlocks
	res.Trace = red.trace
	res.NeverFired = s.neverFired(red.final)
	s.fillStuck(res, red.final)

	if prod := s.exploreProduct(budget); prod.verdict == Deadlocks {
		res.Trace = prod.trace
		res.Minimal = true
		res.States += prod.states
		s.fillStuck(res, prod.stuck)
	} else {
		res.States += prod.states
	}
	return res
}

// fillStuck records the stuck-state detail — the stalled stage and
// the emitters blocked in it — mirroring the emulator's deadlock
// report so the two diagnose identically.
func (s *System) fillStuck(res *Result, st []byte) {
	stage := s.stage(st)
	res.StuckStage = stage
	res.StuckOrder = s.sch.Stages()[stage].Order
	res.Undelivered = s.left(st)
	res.Blocked = nil
	for ei, pi := range s.emitters {
		pc := s.pc(st, ei)
		if pc >= len(s.programs[pi]) || s.phase(st, ei) != Waiting {
			continue
		}
		e := s.programs[pi][pc]
		if s.sch.StageOf(e.Flow) != stage {
			continue
		}
		res.Blocked = append(res.Blocked, Blocked{
			Proc: s.procs[pi],
			Flow: s.sch.Flow(e.Flow),
			Pkg:  e.Pkg,
			Need: e.Need,
			Have: s.received(st, pi),
		})
	}
}

// neverFired lists the emitters still at program entry zero in the
// maximal run's final state: the gates are monotone, so a process
// that never started its first emission there can never fire in any
// run.
func (s *System) neverFired(final []byte) []Blocked {
	var out []Blocked
	for ei, pi := range s.emitters {
		if s.pc(final, ei) != 0 || s.phase(final, ei) != Waiting {
			continue
		}
		e := s.programs[pi][0]
		out = append(out, Blocked{
			Proc: s.procs[pi],
			Flow: s.sch.Flow(e.Flow),
			Pkg:  e.Pkg,
			Need: e.Need,
			Have: s.received(final, pi),
		})
	}
	return out
}

// Replay applies a counterexample trace to the initial state,
// checking every action is the enabled transition it claims to be,
// and reports whether the final state is stuck (no transition
// enabled, stages incomplete). It validates exported traces: a
// Deadlocks result's trace must replay to stuck == true.
func (s *System) Replay(trace []Action) (stuck bool, err error) {
	st := s.initial()
	for i, a := range trace {
		fired := false
		for ei, pi := range s.emitters {
			if s.procs[pi] != a.Proc || !s.enabled(st, ei) {
				continue
			}
			got, ns := s.step(st, ei)
			if got != a {
				return false, fmt.Errorf("automata: replay step %d: %s's enabled transition is %q, trace says %q", i, a.Proc, got, a)
			}
			st = ns
			fired = true
			break
		}
		if !fired {
			return false, fmt.Errorf("automata: replay step %d: no enabled transition for %s (%q)", i, a.Proc, a)
		}
	}
	return s.succ(st, nil) == 0 && !s.done(st), nil
}

// FormatTrace renders a trace as numbered lines, one action each,
// the way segbus-vet -why prints counterexamples.
func FormatTrace(trace []Action) string {
	var b bytes.Buffer
	for i, a := range trace {
		fmt.Fprintf(&b, "%4d. %s\n", i+1, a)
	}
	return b.String()
}
