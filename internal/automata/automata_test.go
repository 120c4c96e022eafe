package automata_test

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"segbus/internal/automata"
	"segbus/internal/conform"
	"segbus/internal/dsl"
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
			// segment hosts no emitter and stays inert.
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
			res := sys.Check()
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
	if res := sys.Check(); res.Verdict != automata.Deadlocks {
		t.Errorf("bare-model verdict = %v, want deadlocks", res.Verdict)
	}

	ok := model("chain", psdf.Flow{Source: 0, Target: 1, Items: 4, Order: 1, Ticks: 5})
	sys, err = automata.Compile(ok, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := sys.Check(); res.Verdict != automata.Terminates {
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

// oracleCorpus is the analyze package's oracle corpus: the scenario
// corpora (deadlocking models included), 200 generated models (seed 7)
// and a same-order cyclic mutant of each (conform.CyclicMutant).
func oracleCorpus(t *testing.T) []*dsl.Document {
	t.Helper()
	var docs []*dsl.Document
	for _, dir := range []string{"scenarios", filepath.Join("scenarios", "deadlock")} {
		corpus, err := conform.LoadCorpusDir(filepath.Join("..", "..", "testdata", dir))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, corpus...)
	}
	g := conform.NewGenerator(7, nil)
	for i := 0; i < 200; i++ {
		doc := g.Next().Doc
		docs = append(docs, doc)
		if mut := conform.CyclicMutant(doc, 0); mut != nil {
			docs = append(docs, mut)
		}
	}
	return docs
}

// withoutTrace returns a copy of res with the trace dropped, so the
// stuck-state detail of two results compares with reflect.DeepEqual.
func withoutTrace(res *automata.Result) automata.Result {
	c := *res
	c.Trace = nil
	return c
}

// TestGreedyMatchesProductOracle holds Check's one lowest-index greedy
// run to the two test-only oracles of the persistence argument. On the
// gallery's cyclic shapes the product search must reach Check's
// verdict. On every deadlocking pair of the oracle corpus, at package
// sizes 1, 7, nominal and 576:
//   - the trace replays to a stuck state, and the flush-priority greedy
//     run (runReduced) takes as many steps and ends in the same state;
//   - wherever the product search decides within 2¹⁴ states, its trace
//     and stuck state equal Check's. At least 100 pairs must be decided
//     there, so the minimality claim is exercised.
func TestGreedyMatchesProductOracle(t *testing.T) {
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
		prod, _, states, ok := sys.ProductOracle(1 << 14)
		if !ok {
			t.Fatalf("%s: product search exhausted its budget", m.Name())
		}
		if got := sys.Check().Verdict; got != prod.Verdict {
			t.Errorf("%s: Check verdict %v, product verdict %v (%d states)", m.Name(), got, prod.Verdict, states)
		}
	}

	deadlocks, decided := 0, 0
	for _, doc := range oracleCorpus(t) {
		for _, size := range []int{1, 7, doc.Model.NominalPackageSize(), 576} {
			plat := doc.Platform
			if plat != nil && size > 0 {
				plat = plat.Clone()
				plat.PackageSize = size
			}
			sys, err := automata.Compile(doc.Model, plat)
			if err != nil {
				continue
			}
			res := sys.Check()
			if res.Verdict != automata.Deadlocks {
				continue
			}
			deadlocks++
			name := fmt.Sprintf("%s at package size %d", doc.Model.Name(), size)

			state, err := sys.ReplayState(res.Trace)
			if err != nil {
				t.Fatalf("%s: counterexample does not replay: %v", name, err)
			}
			if stuck, _ := sys.Replay(res.Trace); !stuck {
				t.Fatalf("%s: counterexample replays to a live state", name)
			}
			red, redState := sys.ReducedOracle()
			if len(red.Trace) != len(res.Trace) || redState != state {
				t.Fatalf("%s: flush-priority run takes %d steps, Check %d; same final state: %v",
					name, len(red.Trace), len(res.Trace), redState == state)
			}
			if !reflect.DeepEqual(withoutTrace(red), withoutTrace(res)) {
				t.Fatalf("%s: stuck detail differs:\nflush-priority run: %+v\nCheck: %+v", name, withoutTrace(red), withoutTrace(res))
			}

			prod, prodState, _, ok := sys.ProductOracle(1 << 14)
			if !ok {
				continue
			}
			decided++
			if prod.Verdict != automata.Deadlocks {
				t.Fatalf("%s: product verdict %v, Check deadlocks", name, prod.Verdict)
			}
			if !slices.Equal(prod.TraceStrings(), res.TraceStrings()) || prodState != state {
				t.Fatalf("%s: Check's counterexample differs from the product's:\ncheck:\n%sproduct:\n%s",
					name, automata.FormatTrace(res.Trace), automata.FormatTrace(prod.Trace))
			}
			if !reflect.DeepEqual(withoutTrace(prod), withoutTrace(res)) {
				t.Fatalf("%s: stuck detail differs:\nproduct: %+v\nCheck: %+v", name, withoutTrace(prod), withoutTrace(res))
			}
		}
	}
	if decided < 100 {
		t.Errorf("the product decided only %d of %d deadlocking pairs, want >= 100", decided, deadlocks)
	}
	t.Logf("%d deadlocking pairs, %d decided by the product within 2^14 states", deadlocks, decided)
}

// sprintfAction is the fmt rendering of a trace line that
// Action.String must reproduce byte for byte.
func sprintfAction(a automata.Action) string {
	switch a.Kind {
	case automata.ActStart:
		return fmt.Sprintf("%s starts computing package %d/%d of %s->%s (order %d)",
			a.Proc, a.Pkg, a.Pkgs, a.Flow.Source, a.Flow.Target, a.Flow.Order)
	case automata.ActRequest:
		return fmt.Sprintf("%s finishes package %d/%d of %s->%s and requests the segment %d bus",
			a.Proc, a.Pkg, a.Pkgs, a.Flow.Source, a.Flow.Target, a.Seg)
	case automata.ActGrant:
		return fmt.Sprintf("SA%d grants the segment %d bus to %s", a.Seg, a.Seg, a.Proc)
	case automata.ActDeliver:
		return fmt.Sprintf("%s delivers package %d/%d of %s->%s", a.Proc, a.Pkg, a.Pkgs, a.Flow.Source, a.Flow.Target)
	}
	return fmt.Sprintf("Action(%d)", int(a.Kind))
}

// TestActionStringMatchesSprintf holds the strconv trace renderer to
// its fmt rendering, on every kind (an unknown one included) with
// zero, negative and extreme fields and the system-output target, and
// through TraceStrings and FormatTrace.
func TestActionStringMatchesSprintf(t *testing.T) {
	var trace []automata.Action
	for _, kind := range []automata.ActionKind{automata.ActStart, automata.ActRequest, automata.ActGrant, automata.ActDeliver, 7} {
		for _, v := range []int{0, 1, -1, 36, math.MaxInt, math.MinInt} {
			trace = append(trace, automata.Action{
				Kind: kind,
				Proc: psdf.ProcessID(v),
				Flow: psdf.Flow{Source: psdf.ProcessID(-v), Target: psdf.SystemOutput, Order: v},
				Pkg:  v,
				Pkgs: -v,
				Seg:  v,
			})
		}
	}
	want := make([]string, len(trace))
	var text strings.Builder
	for i, a := range trace {
		want[i] = sprintfAction(a)
		if got := a.String(); got != want[i] {
			t.Errorf("%+v renders %q, want %q", a, got, want[i])
		}
		fmt.Fprintf(&text, "%4d. %s\n", i+1, want[i])
	}
	res := &automata.Result{Trace: trace}
	if got := res.TraceStrings(); !slices.Equal(got, want) {
		t.Errorf("TraceStrings = %q, want %q", got, want)
	}
	if got := automata.FormatTrace(trace); got != text.String() {
		t.Errorf("FormatTrace = %q, want %q", got, text.String())
	}
}
