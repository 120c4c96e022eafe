package analyze_test

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"segbus/internal/analyze"
	"segbus/internal/conform"
	"segbus/internal/dsl"
)

// TestReachabilityMatchesProductOracle holds the exact reachability
// check, whose verdict comes from the schedule fixpoint, to the oracle
// that builds and checks the automata product for every pair: the
// diagnostics must be byte-equal, SB050 traces included. The inputs are
// the scenario corpus (deadlocking models included), 200 generated
// models and a same-order cyclic mutant of each (conform.CyclicMutant),
// at package sizes 1, 7, the model's nominal size and 576. At least 50
// pairs must deadlock, so both the fixpoint's verdict and the product's
// counterexample are exercised.
func TestReachabilityMatchesProductOracle(t *testing.T) {
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

	pairs, deadlocks := 0, 0
	for _, doc := range docs {
		sizes := []int{1, 7, doc.Model.NominalPackageSize(), 576}
		for _, size := range sizes {
			plat := doc.Platform
			if plat != nil && size > 0 {
				plat = plat.Clone()
				plat.PackageSize = size
			}
			got := diagJSON(t, analyze.ExactReachability(doc.Model, plat))
			want := diagJSON(t, analyze.OracleExactReachability(doc.Model, plat))
			if got != want {
				t.Fatalf("%s at package size %d:\nfixpoint path: %s\nproduct oracle: %s", doc.Model.Name(), size, got, want)
			}
			pairs++
			if strings.Contains(want, analyze.CodeDeadlockState) {
				deadlocks++
			}
		}
	}
	if deadlocks < 50 {
		t.Errorf("only %d of %d pairs deadlock, want >= 50", deadlocks, pairs)
	}
	t.Logf("%d (model, package size) pairs, %d deadlocking", pairs, deadlocks)
}

func diagJSON(t *testing.T, ds []analyze.Diagnostic) string {
	t.Helper()
	b, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
