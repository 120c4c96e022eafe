package automata

import (
	"bytes"
	"fmt"
)

// Check decides, exactly, whether the compiled product can deadlock.
//
// It drives one greedy maximal run that fires the lowest-index enabled
// emitter at each step. By the persistence argument of the package
// comment the run terminates if and only if every run does, and on a
// deadlock its trace is a minimal counterexample into the one stuck
// state. The run takes at most four steps per package.
func (s *System) Check() *Result {
	st := s.initial()
	var trace []Action
	for ei := s.firstEnabled(st); ei >= 0; ei = s.firstEnabled(st) {
		trace = append(trace, s.apply(st, ei))
	}
	return s.result(trace, st)
}

// result is the outcome of a maximal run with the given trace and
// final state: Terminates when every stage completed, otherwise
// Deadlocks with the stuck-state detail — the stalled stage and the
// emitters blocked in it — mirroring the emulator's deadlock report
// so the two diagnose identically.
func (s *System) result(trace []Action, final []byte) *Result {
	if s.done(final) {
		return &Result{Verdict: Terminates}
	}
	stage := s.stage(final)
	res := &Result{
		Verdict:     Deadlocks,
		Trace:       trace,
		StuckStage:  stage,
		StuckOrder:  s.sch.Stages()[stage].Order,
		Undelivered: s.left(final),
		NeverFired:  s.neverFired(final),
	}
	for ei, pi := range s.emitters {
		pc := s.pc(final, ei)
		if pc >= len(s.programs[pi]) || s.phase(final, ei) != Waiting {
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
			Have: s.received(final, pi),
		})
	}
	return res
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
	st, err := s.replay(trace)
	if err != nil {
		return false, err
	}
	return s.firstEnabled(st) < 0 && !s.done(st), nil
}

// replay applies trace to the initial state as Replay describes and
// returns the state it reaches.
func (s *System) replay(trace []Action) ([]byte, error) {
	st := s.initial()
	for i, a := range trace {
		fired := false
		for ei, pi := range s.emitters {
			if s.procs[pi] != a.Proc || !s.enabled(st, ei) {
				continue
			}
			if got := s.apply(st, ei); got != a {
				return nil, fmt.Errorf("automata: replay step %d: %s's enabled transition is %q, trace says %q", i, a.Proc, got, a)
			}
			fired = true
			break
		}
		if !fired {
			return nil, fmt.Errorf("automata: replay step %d: no enabled transition for %s (%q)", i, a.Proc, a)
		}
	}
	return st, nil
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
