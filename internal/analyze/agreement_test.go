package analyze_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"segbus/internal/analyze"
	"segbus/internal/apps"
	"segbus/internal/conform"
	"segbus/internal/dsl"
	"segbus/internal/platform"
	"segbus/internal/power"
	"segbus/internal/psdf"
	"segbus/internal/schema"
)

// TestConsumersAgreeWithFormerGates holds every consumer of the shared
// admission (sched.Pair) to the validation prologue it had of its own
// (analyze.CheckAgreement) on:
//   - every scenario description, broken and deadlocking ones included,
//     and each scenario's bare model;
//   - the 200 conformance cases segbus-conform sweeps in CI (seed 1,
//     scenario corpus) at package sizes 1, 7, nominal and 576;
//   - each case's bare model, crossed pairs (each case's model on the
//     previous case's platform), pairs whose only fault is an FU
//     interface role, and pairs with a broken model, a broken
//     platform or both;
//   - the pairs behind the served rejection corpus: the deadlock
//     scenarios, cyclic mutants and crossed pairs, through the schemes;
//   - the scheme parser's fuzz seeds (the MP3 schemes), crossed.
func TestConsumersAgreeWithFormerGates(t *testing.T) {
	var docs []*dsl.Document
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.sbd"))
	if err != nil {
		t.Fatal(err)
	}
	deadlocks, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "deadlock", "*.sbd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(paths, deadlocks...) {
		doc := parseFile(t, path)
		docs = append(docs, doc, &dsl.Document{Model: doc.Model, Stereotype: doc.Stereotype})
	}
	if len(paths) == 0 || len(deadlocks) == 0 {
		t.Fatal("no scenario descriptions")
	}

	corpus, err := conform.LoadCorpusDir(filepath.Join("..", "..", "testdata", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	g := conform.NewGenerator(1, corpus)
	var prev *platform.Platform
	roles := 0
	for i := 0; i < 200; i++ {
		doc := g.Next().Doc
		for _, s := range []int{1, 7, doc.Model.NominalPackageSize(), 576} {
			if s <= 0 {
				continue
			}
			plat := doc.Platform.Clone()
			plat.PackageSize = s
			docs = append(docs, &dsl.Document{Model: doc.Model, Platform: plat, Stereotype: doc.Stereotype})
		}
		if prev != nil {
			docs = append(docs, &dsl.Document{Model: doc.Model, Platform: prev})
		}
		prev = doc.Platform
		if bad := rolesOnlyFault(doc); bad != nil {
			docs = append(docs, bad)
			roles++
		}
		// Broken halves: a non-positive package size (and, on every
		// other case, CA clock) and a self-loop flow.
		badPlat := doc.Platform.Clone()
		badPlat.PackageSize = 0
		if i%2 == 1 {
			badPlat.CAClock = 0
		}
		badModel := doc.Model.Clone()
		loop := badModel.Flows()[0]
		loop.Target = loop.Source
		badModel.AddFlow(loop)
		docs = append(docs,
			&dsl.Document{Model: doc.Model},
			&dsl.Document{Model: doc.Model, Platform: badPlat},
			&dsl.Document{Model: badModel},
			&dsl.Document{Model: badModel, Platform: doc.Platform},
			&dsl.Document{Model: badModel, Platform: badPlat})
	}
	if roles == 0 {
		t.Fatal("no generated case yields a roles-only fault")
	}

	docs = append(docs, servedRejections(t, 200)...)
	docs = append(docs, schemeSeeds(t)...)

	unhosted := 0
	for i, doc := range docs {
		if err := analyze.CheckAgreement(doc); err != nil {
			t.Fatalf("pair %d (%s): %v", i, doc.Model.Name(), err)
		}
		if doc.Platform != nil {
			if _, err := power.NewProfile(doc.Model, doc.Platform, power.Params{}); err != nil && strings.Contains(err.Error(), "on no segment") {
				unhosted++
			}
		}
	}
	if unhosted == 0 {
		t.Error("no pair reaches power's unhosted-endpoint error")
	}
	t.Logf("%d pairs agree (%d roles-only faults, %d refused by power for an unhosted endpoint)", len(docs), roles, unhosted)
}

// rolesOnlyFault returns doc with the FU hosting its first flow's
// source made slave-only, when that leaves the roles as the pair's
// only fault; nil otherwise.
func rolesOnlyFault(doc *dsl.Document) *dsl.Document {
	if doc.Validate().HasErrors() || doc.Model.NumFlows() == 0 {
		return nil
	}
	src := doc.Model.Flows()[0].Source
	plat := doc.Platform.Clone()
	for si := range plat.Segments {
		for fi := range plat.Segments[si].FUs {
			if plat.Segments[si].FUs[fi].Process == src {
				plat.Segments[si].FUs[fi].Kind = platform.SlaveOnly
			}
		}
	}
	if plat.Validate() != nil || plat.ValidateMapping(doc.Model) != nil || plat.ValidateRoles(doc.Model) == nil {
		return nil
	}
	return &dsl.Document{Model: doc.Model, Platform: plat}
}

// servedRejections rebuilds, as parsed pairs, the request corpus the
// served rejection tests pin: the deadlock scenarios, the cyclic
// mutants of the first n generated cases (seed 1) and those cases'
// crossed pairs, every one through its m2t schemes.
func servedRejections(t *testing.T, n int) []*dsl.Document {
	t.Helper()
	scen, err := conform.LoadCorpusDir(filepath.Join("..", "..", "testdata", "scenarios", "deadlock"))
	if err != nil {
		t.Fatal(err)
	}
	var out []*dsl.Document
	add := func(psdfXML, psmXML []byte) {
		m, err := schema.ParsePSDF(psdfXML)
		if err != nil {
			return
		}
		plat, err := schema.ParsePSM(psmXML)
		if err != nil {
			return
		}
		out = append(out, &dsl.Document{Model: m, Platform: plat})
	}
	for _, doc := range scen {
		psdfXML, psmXML, err := conform.NewCase(doc).Schemes()
		if err != nil {
			t.Fatal(err)
		}
		add(psdfXML, psmXML)
	}
	g := conform.NewGenerator(1, nil)
	var prevPSM []byte
	for i := 0; i < n; i++ {
		c := g.Next()
		if mut := conform.CyclicMutant(c.Doc, 0); mut != nil {
			if psdfXML, psmXML, err := conform.NewCase(mut).Schemes(); err == nil {
				add(psdfXML, psmXML)
			}
		}
		psdfXML, psmXML, err := c.Schemes()
		if err != nil {
			continue
		}
		if prevPSM != nil {
			add(psdfXML, prevPSM)
		}
		prevPSM = psmXML
	}
	return out
}

// schemeSeeds returns the pairs the scheme parser's fuzz seeds parse
// to — the MP3 PSDF scheme and the one- and three-segment MP3 PSM
// schemes — each platform paired with the model and with a model of
// another application.
func schemeSeeds(t *testing.T) []*dsl.Document {
	t.Helper()
	var out []*dsl.Document
	for _, p := range []*platform.Platform{apps.MP3Platform3(36), apps.MP3Platform1(18)} {
		for _, m := range []*psdf.Model{apps.MP3Model(), apps.JPEGModel()} {
			psdfXML, psmXML, err := conform.NewCase(&dsl.Document{Model: m, Platform: p}).Schemes()
			if err != nil {
				t.Fatal(err)
			}
			pm, err := schema.ParsePSDF(psdfXML)
			if err != nil {
				t.Fatal(err)
			}
			pp, err := schema.ParsePSM(psmXML)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, &dsl.Document{Model: pm, Platform: pp})
		}
	}
	return out
}

func parseFile(t *testing.T, path string) *dsl.Document {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := dsl.Parse(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return doc
}
