package automata_test

import (
	"errors"
	"testing"

	"segbus/internal/automata"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

func model(name string, flows ...psdf.Flow) *psdf.Model {
	m := psdf.NewModel(name)
	for _, f := range flows {
		m.AddFlow(f)
	}
	return m
}

func plat(segs ...[]psdf.ProcessID) *platform.Platform {
	p := platform.New("test", 100*platform.MHz, 4)
	for _, procs := range segs {
		p.AddSegment(90*platform.MHz, procs...)
	}
	return p
}

// TestDeadlockGallery drives the exact checker over the canonical
// stuck and almost-stuck schedule shapes, asserting the verdict, the
// counterexample bookkeeping, agreement with the emulator's outcome,
// and that every deadlock trace replays into a stuck product state.
func TestDeadlockGallery(t *testing.T) {
	cases := []struct {
		name       string
		m          *psdf.Model
		p          *platform.Platform
		verdict    automata.Verdict
		traceLen   int // -1: don't check
		neverFired []psdf.ProcessID
		blocked    []psdf.ProcessID
	}{
		{
			// Two processes on different segments feed each other at
			// one ordering number: once the seed stage drains, each
			// member's gate waits on the other and nothing ever fires.
			name: "cyclic-wait-across-two-segments",
			m: model("cyclic",
				psdf.Flow{Source: 3, Target: 0, Items: 4, Order: 1, Ticks: 5},
				psdf.Flow{Source: 0, Target: 1, Items: 4, Order: 2, Ticks: 5},
				psdf.Flow{Source: 1, Target: 0, Items: 4, Order: 2, Ticks: 5},
			),
			p:          plat([]psdf.ProcessID{0, 3}, []psdf.ProcessID{1}),
			verdict:    automata.Deadlocks,
			traceLen:   4, // the seed package's four actions
			neverFired: []psdf.ProcessID{0, 1},
			blocked:    []psdf.ProcessID{0, 1},
		},
		{
			// An open cycle that makes partial progress and then
			// starves: P2 needs both of P1's packages, but P1's second
			// emission waits on P2's answer.
			name: "starved-ordering",
			m: model("starved",
				psdf.Flow{Source: 0, Target: 1, Items: 4, Order: 1, Ticks: 5},
				psdf.Flow{Source: 1, Target: 2, Items: 8, Order: 1, Ticks: 5},
				psdf.Flow{Source: 2, Target: 1, Items: 4, Order: 1, Ticks: 5},
			),
			p:          plat([]psdf.ProcessID{0, 1}, []psdf.ProcessID{2}),
			verdict:    automata.Deadlocks,
			traceLen:   8, // two delivered packages, four actions each
			neverFired: []psdf.ProcessID{2},
			blocked:    []psdf.ProcessID{1, 2},
		},
		{
			// A self-consistent feedback loop: P0's side output to P3
			// dilutes its firing gates enough that the seed lets the
			// cycle hand packages back and forth until it drains. The
			// SB101 heuristic grades this shape a warning; the exact
			// checker proves it terminates.
			name: "self-consistent-cycle-terminates",
			m: model("feedback",
				psdf.Flow{Source: 2, Target: 0, Items: 4, Order: 1, Ticks: 5},
				psdf.Flow{Source: 0, Target: 1, Items: 4, Order: 1, Ticks: 5},
				psdf.Flow{Source: 0, Target: 3, Items: 8, Order: 1, Ticks: 5},
				psdf.Flow{Source: 1, Target: 0, Items: 4, Order: 1, Ticks: 5},
			),
			p:        plat([]psdf.ProcessID{0, 1}, []psdf.ProcessID{2, 3}),
			verdict:  automata.Terminates,
			traceLen: -1,
		},
		{
			// The same loop with the return flow halved: P1's gate
			// then demands both of P0's packages before answering, so
			// the loop stalls after consuming the seed — the
			// livelock-shaped variant of the feedback cycle.
			name: "self-consistent-livelock-stalls",
			m: model("livelock",
				psdf.Flow{Source: 2, Target: 0, Items: 4, Order: 1, Ticks: 5},
				psdf.Flow{Source: 0, Target: 1, Items: 8, Order: 1, Ticks: 5},
				psdf.Flow{Source: 1, Target: 0, Items: 4, Order: 1, Ticks: 5},
			),
			p:          plat([]psdf.ProcessID{0, 1}, []psdf.ProcessID{2}),
			verdict:    automata.Deadlocks,
			traceLen:   8, // seed plus P0's first package
			neverFired: []psdf.ProcessID{1},
			blocked:    []psdf.ProcessID{0, 1},
		},
		{
			// Plain pipeline across segments: terminates; the sink's
			// segment hosts no emitter and is pruned from the product.
			name: "chain-terminates",
			m: model("chain",
				psdf.Flow{Source: 0, Target: 1, Items: 8, Order: 1, Ticks: 5},
				psdf.Flow{Source: 1, Target: 2, Items: 8, Order: 2, Ticks: 5},
			),
			p:        plat([]psdf.ProcessID{0, 1}, []psdf.ProcessID{2}),
			verdict:  automata.Terminates,
			traceLen: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := automata.Compile(tc.m, tc.p)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			res := sys.Check(automata.Options{})
			if res.Verdict != tc.verdict {
				t.Fatalf("verdict = %v, want %v", res.Verdict, tc.verdict)
			}

			// The emulator must agree with the exact verdict.
			_, emuErr := emulator.Run(tc.m, tc.p, emulator.Config{})
			var dl *emulator.DeadlockError
			emuDeadlock := errors.As(emuErr, &dl)
			if emuErr != nil && !emuDeadlock {
				t.Fatalf("emulator failed for a non-deadlock reason: %v", emuErr)
			}
			if emuDeadlock != (tc.verdict == automata.Deadlocks) {
				t.Fatalf("emulator deadlock = %v, checker verdict %v", emuDeadlock, res.Verdict)
			}

			if tc.verdict != automata.Deadlocks {
				if len(res.Trace) != 0 || len(res.Blocked) != 0 || len(res.NeverFired) != 0 {
					t.Fatalf("terminating result carries deadlock detail: %+v", res)
				}
				return
			}

			if !res.Minimal {
				t.Errorf("expected a minimal trace from the product exploration")
			}
			if tc.traceLen >= 0 && len(res.Trace) != tc.traceLen {
				t.Errorf("trace length = %d, want %d\n%s", len(res.Trace), tc.traceLen, automata.FormatTrace(res.Trace))
			}
			stuck, err := sys.Replay(res.Trace)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if !stuck {
				t.Errorf("counterexample trace does not replay to a stuck state")
			}
			if got := procsOf(res.NeverFired); !equalProcs(got, tc.neverFired) {
				t.Errorf("NeverFired = %v, want %v", got, tc.neverFired)
			}
			if got := procsOf(res.Blocked); !equalProcs(got, tc.blocked) {
				t.Errorf("Blocked = %v, want %v", got, tc.blocked)
			}
			if dl != nil && dl.Order != res.StuckOrder {
				t.Errorf("emulator stalls at order %d, checker at order %d", dl.Order, res.StuckOrder)
			}
		})
	}
}

func procsOf(bs []automata.Blocked) []psdf.ProcessID {
	out := make([]psdf.ProcessID, len(bs))
	for i, b := range bs {
		out[i] = b.Proc
	}
	return out
}

func equalProcs(a, b []psdf.ProcessID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSymmetryReduction pins the inert-segment pruning: segments
// hosting only receivers contribute no product states.
func TestSymmetryReduction(t *testing.T) {
	m := model("chain",
		psdf.Flow{Source: 0, Target: 1, Items: 8, Order: 1, Ticks: 5},
		psdf.Flow{Source: 1, Target: 2, Items: 8, Order: 2, Ticks: 5},
	)
	sys, err := automata.Compile(m, plat([]psdf.ProcessID{0, 1}, []psdf.ProcessID{2}))
	if err != nil {
		t.Fatal(err)
	}
	if sys.PrunedSegments() != 1 {
		t.Errorf("PrunedSegments = %d, want 1 (the sink-only segment)", sys.PrunedSegments())
	}
	if sys.NumEmitters() != 2 {
		t.Errorf("NumEmitters = %d, want 2", sys.NumEmitters())
	}
}

// TestNilPlatform checks the bare-model fallback: one implicit
// segment, nominal (or unit) package size, same verdicts.
func TestNilPlatform(t *testing.T) {
	dead := model("cyclic",
		psdf.Flow{Source: 2, Target: 0, Items: 4, Order: 1, Ticks: 5},
		psdf.Flow{Source: 0, Target: 1, Items: 4, Order: 2, Ticks: 5},
		psdf.Flow{Source: 1, Target: 0, Items: 4, Order: 2, Ticks: 5},
	)
	sys, err := automata.Compile(dead, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := sys.Check(automata.Options{}); res.Verdict != automata.Deadlocks {
		t.Errorf("bare-model verdict = %v, want deadlocks", res.Verdict)
	}

	ok := model("chain", psdf.Flow{Source: 0, Target: 1, Items: 4, Order: 1, Ticks: 5})
	sys, err = automata.Compile(ok, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := sys.Check(automata.Options{}); res.Verdict != automata.Terminates {
		t.Errorf("bare-model verdict = %v, want terminates", res.Verdict)
	}
}

// TestInvalidModelRejected: Compile must refuse unvalidated inputs
// (the analyze glue depends on this to skip broken models silently).
func TestInvalidModelRejected(t *testing.T) {
	bad := model("bad", psdf.Flow{Source: 0, Target: 0, Items: 4, Order: 1, Ticks: 5})
	if _, err := automata.Compile(bad, nil); err == nil {
		t.Fatal("Compile accepted a self-loop model")
	}
}

// TestBudgetExhaustion: a tiny budget must yield Inconclusive, never
// a wrong verdict.
func TestBudgetExhaustion(t *testing.T) {
	m := model("chain", psdf.Flow{Source: 0, Target: 1, Items: 64, Order: 1, Ticks: 5})
	sys, err := automata.Compile(m, plat([]psdf.ProcessID{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Check(automata.Options{StateBudget: 3})
	if res.Verdict != automata.Inconclusive {
		t.Errorf("verdict = %v, want inconclusive at budget 3", res.Verdict)
	}
}

// TestProductMatchesReduced cross-checks the persistence reduction on
// the gallery shapes: the exhaustive product explorer and the greedy
// run must agree wherever both conclude.
func TestProductMatchesReduced(t *testing.T) {
	shapes := []*psdf.Model{
		model("a",
			psdf.Flow{Source: 2, Target: 0, Items: 8, Order: 1, Ticks: 5},
			psdf.Flow{Source: 0, Target: 1, Items: 8, Order: 2, Ticks: 5},
			psdf.Flow{Source: 1, Target: 0, Items: 8, Order: 2, Ticks: 5},
		),
		model("b",
			psdf.Flow{Source: 0, Target: 1, Items: 8, Order: 1, Ticks: 5},
			psdf.Flow{Source: 1, Target: 2, Items: 8, Order: 1, Ticks: 5},
			psdf.Flow{Source: 2, Target: psdf.SystemOutput, Items: 8, Order: 2, Ticks: 5},
		),
		model("c",
			psdf.Flow{Source: 2, Target: 0, Items: 4, Order: 1, Ticks: 5},
			psdf.Flow{Source: 0, Target: 1, Items: 8, Order: 1, Ticks: 5},
			psdf.Flow{Source: 1, Target: 0, Items: 4, Order: 1, Ticks: 5},
		),
	}
	for _, m := range shapes {
		sys, err := automata.Compile(m, nil)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		terminated, exhausted, _ := sys.RunReduced(automata.DefaultStateBudget)
		verdict, states := sys.ExploreProduct(automata.DefaultStateBudget)
		if exhausted || verdict == automata.Inconclusive {
			t.Fatalf("%s: unexpected budget exhaustion", m.Name())
		}
		if terminated != (verdict == automata.Terminates) {
			t.Errorf("%s: reduced terminated=%v, product verdict=%v (%d states)",
				m.Name(), terminated, verdict, states)
		}
	}
}
