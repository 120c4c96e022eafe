package emulator_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"segbus/internal/conform"
	"segbus/internal/emulator"
)

// TestAppendJSONCorpus holds AppendJSON to the MarshalIndent oracle on
// every report of the scenario corpus and of the first 200 conform
// cases of seed 1 (the cases of the conform smoke sweep): the
// estimation run and the refined run of each model that emulates.
func TestAppendJSONCorpus(t *testing.T) {
	corpus, err := conform.LoadCorpusDir(filepath.Join("..", "..", "testdata", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	cases := make([]*conform.Case, 0, len(corpus)+200)
	for _, doc := range corpus {
		cases = append(cases, conform.NewCase(doc))
	}
	g := conform.NewGenerator(1, corpus)
	for range 200 {
		cases = append(cases, g.Next())
	}
	checked := 0
	for i, c := range cases {
		var reps []*emulator.Report
		if est, err := c.Est(); err == nil {
			reps = append(reps, est.Report)
		}
		if act, err := c.Act(); err == nil {
			reps = append(reps, act)
		}
		for _, r := range reps {
			want, err := emulator.OracleJSON(r)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.AppendJSON(nil); !bytes.Equal(got, want) {
				t.Fatalf("case %d (%s): AppendJSON differs from the oracle:\n got %s\nwant %s", i, c.Origin, got, want)
			}
			checked++
		}
	}
	// Most generated models emulate; a corpus that stopped producing
	// reports would make the comparison vacuous.
	if checked < 2*len(corpus)+300 {
		t.Errorf("only %d reports compared", checked)
	}
	t.Logf("%d reports compared", checked)
}
