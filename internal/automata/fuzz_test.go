package automata_test

import (
	"slices"
	"strings"
	"testing"

	"segbus/internal/automata"
	"segbus/internal/conform"
	"segbus/internal/dsl"
)

// FuzzProduct holds Check's one greedy run to the exhaustive product
// search on arbitrary documents, seeded from the conformance
// generator's model family. Check's verdict must agree with the
// schedule's fixpoint (sched.Schedule.Drains) on every input, every
// deadlock trace must replay into a stuck state, and wherever the
// product search decides within its budget, it must reach the same
// verdict and the same trace.
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
		res := sys.Check()
		if drains := sys.Schedule().Drains(); drains != (res.Verdict == automata.Terminates) {
			t.Fatalf("Drains() = %v but Check verdict %v", drains, res.Verdict)
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

		prod, _, _, ok := sys.ProductOracle(budget)
		if !ok {
			return // the product search ran out of budget; nothing to compare
		}
		if prod.Verdict != res.Verdict {
			t.Fatalf("Check verdict %v disagrees with product verdict %v", res.Verdict, prod.Verdict)
		}
		if !slices.Equal(prod.TraceStrings(), res.TraceStrings()) {
			t.Fatalf("Check trace differs from the product's:\ncheck:\n%sproduct:\n%s",
				automata.FormatTrace(res.Trace), automata.FormatTrace(prod.Trace))
		}
	})
}
