package conform

import (
	"path/filepath"
	"slices"
	"testing"

	"segbus/internal/core"
	"segbus/internal/psdf"
	"segbus/internal/schema"
)

// TestServableCases checks the filter's contract: every returned case
// really is servable and has no flow to the system output, the
// selection is deterministic per seed, and distinct seeds diverge.
func TestServableCases(t *testing.T) {
	corpus, err := LoadCorpusDir(filepath.Join("..", "..", "testdata", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	cases, err := ServableCases(3, 12, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 12 {
		t.Fatalf("%d cases, want 12", len(cases))
	}
	for i, c := range cases {
		psdfXML, _, err := c.Schemes()
		if err != nil {
			t.Fatalf("case %d (%s): transform: %v", i, c.Origin, err)
		}
		if _, err := schema.ParsePSDF(psdfXML); err != nil {
			t.Errorf("case %d (%s): unparseable scheme passed the filter: %v", i, c.Origin, err)
		}
		if pre := core.Preflight(c.Doc.Model, c.Doc.Platform); pre.HasErrors() {
			t.Errorf("case %d (%s): preflight-failing case passed the filter", i, c.Origin)
		}
		if _, err := c.ReportJSON(); err != nil {
			t.Errorf("case %d (%s): servable case failed to estimate: %v", i, c.Origin, err)
		}
	}

	// Same seed: same cases, same order (compare by canonical bytes).
	again, err := ServableCases(3, 12, corpus)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cases {
		a, _, _ := cases[i].Schemes()
		b, _, _ := again[i].Schemes()
		if string(a) != string(b) {
			t.Fatalf("case %d differs across identical-seed runs", i)
		}
	}

	// A different seed must not replay the same stream.
	other, err := ServableCases(4, 12, corpus)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range cases {
		a, _, _ := cases[i].Schemes()
		b, _, _ := other[i].Schemes()
		if string(a) == string(b) {
			same++
		}
	}
	if same == len(cases) {
		t.Error("seeds 3 and 4 produced identical case streams")
	}

	// A few generated models have a flow to the system output; none
	// may pass.
	plain, err := ServableCases(1, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range plain {
		if slices.ContainsFunc(c.Doc.Model.Flows(), func(f psdf.Flow) bool { return f.Target == psdf.SystemOutput }) {
			t.Errorf("seed 1 case %d (%s): a flow to the system output passed the filter", i, c.Origin)
		}
	}

	if _, err := ServableCases(1, 0, nil); err == nil {
		t.Error("n=0 did not error")
	}
}
