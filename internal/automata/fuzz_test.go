package automata_test

import (
	"strings"
	"testing"

	"segbus/internal/automata"
	"segbus/internal/conform"
	"segbus/internal/dsl"
)

// FuzzProduct cross-checks the persistence reduction against the
// exhaustive product exploration on arbitrary documents, seeded from
// the conformance generator's model family. Wherever both conclude
// within budget they must agree, every deadlock verdict must ship a
// trace that replays into a stuck state, and the schedule's fixpoint
// (sched.Schedule.Drains) must drain exactly when Check concludes
// Terminates.
func FuzzProduct(f *testing.F) {
	gen := conform.NewGenerator(1, nil)
	for i := 0; i < 12; i++ {
		f.Add(gen.Next().Doc.Print())
	}
	const budget = 1 << 12

	f.Fuzz(func(t *testing.T, text string) {
		doc, err := dsl.Parse(strings.NewReader(text))
		if err != nil || doc.Model == nil {
			t.Skip()
		}
		sys, err := automata.Compile(doc.Model, doc.Platform)
		if err != nil {
			t.Skip() // invalid or oversized input
		}
		res := sys.Check(automata.Options{StateBudget: budget})
		if res.Verdict != automata.Inconclusive {
			if drains := sys.Schedule().Drains(); drains != (res.Verdict == automata.Terminates) {
				t.Fatalf("Drains() = %v but Check verdict %v", drains, res.Verdict)
			}
		}
		if res.Verdict == automata.Deadlocks {
			stuck, err := sys.Replay(res.Trace)
			if err != nil {
				t.Fatalf("counterexample does not replay: %v", err)
			}
			if !stuck {
				t.Fatalf("counterexample replays to a live state:\n%s", automata.FormatTrace(res.Trace))
			}
		}

		terminated, exhausted, _ := sys.RunReduced(budget)
		verdict, _ := sys.ExploreProduct(budget)
		if exhausted || verdict == automata.Inconclusive {
			return // one side ran out of budget; nothing to compare
		}
		if terminated != (verdict == automata.Terminates) {
			t.Fatalf("reduced run terminated=%v but product verdict=%v", terminated, verdict)
		}
		if res.Verdict != verdict {
			t.Fatalf("Check verdict %v disagrees with product verdict %v", res.Verdict, verdict)
		}
	})
}
