package schema_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"segbus/internal/conform"
	"segbus/internal/dsl"
	"segbus/internal/m2t"
	"segbus/internal/schema"
)

// TestScannerReadsServedCorpus checks that every scheme of the shape
// the service is sent — m2t renderings of the scenario models, the
// conformance generator's servable pairs, the goldens, and the warm
// workload's re-encodings of all of them — is read by the scanner
// itself, with the decoder's result.
func TestScannerReadsServedCorpus(t *testing.T) {
	var docs []string
	paths, err := filepath.Glob("../../testdata/scenarios/*.sbd")
	if err != nil {
		t.Fatal(err)
	}
	more, err := filepath.Glob("../../testdata/scenarios/*/*.sbd")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(paths, more...) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := dsl.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		psdfXML, err := m2t.GeneratePSDF(doc.Model)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		psmXML, err := m2t.GeneratePSM(doc.Platform)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		docs = append(docs, string(psdfXML), string(psmXML))
	}
	if len(docs) < 2*8 {
		t.Fatalf("only %d scenario schemes", len(docs))
	}
	cases, err := conform.ServableCases(1, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		psdfXML, psmXML, err := c.Schemes()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(psdfXML), string(psmXML))
	}
	for _, golden := range []string{"mp3-psdf.xsd", "mp3-psm.xsd"} {
		data, err := os.ReadFile(filepath.Join("../../testdata/golden", golden))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(data))
	}
	for i, n := 0, len(docs); i < n; i++ {
		docs = append(docs, reencode(docs[i], i))
	}

	for i, doc := range docs {
		if !schema.CheckOracle(t, []byte(doc)) {
			t.Fatalf("scheme %d left to the decoder:\n%s", i, doc)
		}
	}
}

// reencode re-encodes a scheme as the benchmark's warm workload does:
// a comment after the declaration, and a tab for each two-space
// indent.
func reencode(doc string, n int) string {
	decl, rest, _ := strings.Cut(doc, "\n")
	lines := strings.Split(rest, "\n")
	for i, l := range lines {
		trimmed := strings.TrimLeft(l, " ")
		lines[i] = strings.Repeat("\t", (len(l)-len(trimmed))/2) + trimmed
	}
	return decl + "\n<!-- request " + strconv.Itoa(n) + " -->\n" + strings.Join(lines, "\n")
}

// BenchmarkParseCorpus measures ParsePSDF and ParsePSM over the first
// 64 servable conformance pairs, the hot set of the serving
// benchmark's warm workload; one op parses one pair's two schemes.
func BenchmarkParseCorpus(b *testing.B) {
	cases, err := conform.ServableCases(1, 64, nil)
	if err != nil {
		b.Fatal(err)
	}
	psdfs, psms := make([][]byte, len(cases)), make([][]byte, len(cases))
	size := 0
	for i, c := range cases {
		if psdfs[i], psms[i], err = c.Schemes(); err != nil {
			b.Fatal(err)
		}
		size += len(psdfs[i]) + len(psms[i])
	}
	for _, bc := range []struct {
		name  string
		parse func(i int) error
	}{
		{"psdf", func(i int) error { _, err := schema.ParsePSDF(psdfs[i]); return err }},
		{"psm", func(i int) error { _, err := schema.ParsePSM(psms[i]); return err }},
		{"pair", func(i int) error {
			if _, err := schema.ParsePSDF(psdfs[i]); err != nil {
				return err
			}
			_, err := schema.ParsePSM(psms[i])
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.parse(i % len(cases)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Logf("%d bytes of XML per pair on average", size/len(cases))
}
