package analyze_test

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"segbus/internal/analyze"
	"segbus/internal/conform"
	"segbus/internal/dsl"
	"segbus/internal/platform"
)

// oracleCorpus is the input set of the oracle tests: the scenario
// corpus (deadlocking models included), 200 generated models (seed 7)
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

// forEachSize calls fn with the document's platform at package sizes
// 1, 7, the model's nominal size and 576 (the platform as declared
// where the size is not positive, or there is none).
func forEachSize(doc *dsl.Document, fn func(size int, plat *platform.Platform)) {
	for _, size := range []int{1, 7, doc.Model.NominalPackageSize(), 576} {
		plat := doc.Platform
		if plat != nil && size > 0 {
			plat = plat.Clone()
			plat.PackageSize = size
		}
		fn(size, plat)
	}
}

// TestReachabilityMatchesProductOracle holds the exact reachability
// check, whose verdict comes from the schedule fixpoint, to the oracle
// that builds and checks the automata product for every pair: the
// diagnostics must be byte-equal, SB050 traces included, on the oracle
// corpus at every size of forEachSize. At least 50 pairs must
// deadlock, so both the fixpoint's verdict and the product's
// counterexample are exercised.
func TestReachabilityMatchesProductOracle(t *testing.T) {
	pairs, deadlocks := 0, 0
	for _, doc := range oracleCorpus(t) {
		forEachSize(doc, func(size int, plat *platform.Platform) {
			got := diagJSON(t, analyze.ExactReachability(doc.Model, plat))
			want := diagJSON(t, analyze.OracleExactReachability(doc.Model, plat))
			if got != want {
				t.Fatalf("%s at package size %d:\nfixpoint path: %s\nproduct oracle: %s", doc.Model.Name(), size, got, want)
			}
			pairs++
			if strings.Contains(want, analyze.CodeDeadlockState) {
				deadlocks++
			}
		})
	}
	if deadlocks < 50 {
		t.Errorf("only %d of %d pairs deadlock, want >= 50", deadlocks, pairs)
	}
	t.Logf("%d (model, package size) pairs, %d deadlocking", pairs, deadlocks)
}

// TestBoundsMatchPerPackageOracle holds the closed-form ComputeBounds
// to the per-package walk it replaced (analyze.SameBounds): the same
// error text, or byte-equal Bounds JSON, on every platformed pair of
// the oracle corpus at every size of forEachSize.
func TestBoundsMatchPerPackageOracle(t *testing.T) {
	pairs := 0
	for _, doc := range oracleCorpus(t) {
		forEachSize(doc, func(size int, plat *platform.Platform) {
			if plat == nil {
				return
			}
			if err := analyze.SameBounds(doc.Model, plat); err != nil {
				t.Fatalf("package size %d: %v", size, err)
			}
			pairs++
		})
	}
	if pairs < 1600 {
		t.Errorf("only %d pairs compared, want >= 1600", pairs)
	}
	t.Logf("%d (model, package size) pairs", pairs)
}

func diagJSON(t *testing.T, ds []analyze.Diagnostic) string {
	t.Helper()
	b, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
