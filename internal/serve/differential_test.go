package serve

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"

	"segbus/internal/conform"
	"segbus/internal/core"
	"segbus/internal/schema"
)

// TestDifferentialServiceVsCLI is the service-vs-CLI differential
// oracle of the acceptance criteria: ≥200 generated cases (scenario-
// corpus seeded, like the segbus-conform smoke sweep) are POSTed to
// the service, and every 200 response must be byte-identical to the
// CLI pipeline's report JSON for the same schemes. Every tenth case
// is replayed to force cache hits, and hit bodies must not drift
// from their cold-run bytes either.
func TestDifferentialServiceVsCLI(t *testing.T) {
	corpus, err := conform.LoadCorpusDir(filepath.Join("..", "..", "testdata", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	g := conform.NewGenerator(1, corpus)

	s := New(Config{Workers: 4, Queue: 8, CacheEntries: 64})
	h := s.Handler()

	// ≥200 cases must actually serve; cases whose schemes do not
	// parse back or fail preflight are asserted to fail with the right
	// code but do not count. The generator yields roughly three
	// servable cases in four, so the cap is generous.
	const wantServed = 200
	const maxCases = 600
	var served, hits, skipped int
	for i := 0; served < wantServed && i < maxCases; i++ {
		c := g.Next()
		psdfXML, psmXML, err := c.Schemes()
		if err != nil {
			t.Fatalf("case %d (%s): transform: %v", i, c.Origin, err)
		}
		req, err := json.Marshal(EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)})
		if err != nil {
			t.Fatal(err)
		}
		rec := post(h, req)

		// A scheme that does not parse back must be shed as a coded
		// scheme rejection; everything else must serve.
		if _, perr := schema.ParsePSDF(psdfXML); perr != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("case %d (%s): unparseable scheme got status %d", i, c.Origin, rec.Code)
			}
			if e := decodeError(t, rec); e.Code != CodeBadScheme {
				t.Fatalf("case %d (%s): code %s", i, c.Origin, e.Code)
			}
			skipped++
			continue
		}
		// Preflight can reject generated pairs the plain emulation
		// accepts; the CLI (segbus-emu) applies the same gate, so a
		// coded SB902 on both sides still agrees.
		if pre := core.Preflight(c.Doc.Model, c.Doc.Platform); pre.HasErrors() {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("case %d (%s): preflight-failing case got status %d", i, c.Origin, rec.Code)
			}
			if e := decodeError(t, rec); e.Code != CodeBadModel {
				t.Fatalf("case %d (%s): code %s", i, c.Origin, e.Code)
			}
			skipped++
			continue
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("case %d (%s): status %d: %s", i, c.Origin, rec.Code, rec.Body.String())
		}
		if err := c.CheckServed(rec.Body.Bytes()); err != nil {
			t.Fatalf("case %d (%s): %v", i, c.Origin, err)
		}
		served++

		if i%10 == 0 {
			rec2 := post(h, req)
			if rec2.Code != http.StatusOK {
				t.Fatalf("case %d replay: status %d", i, rec2.Code)
			}
			if rec2.Header().Get("X-Segbus-Cache") != "hit" {
				t.Fatalf("case %d replay was not a cache hit", i)
			}
			if err := c.CheckServed(rec2.Body.Bytes()); err != nil {
				t.Fatalf("case %d replay (cache hit): %v", i, err)
			}
			hits++
		}
	}
	if served < wantServed {
		t.Errorf("only %d/%d cases actually served (%d skipped)", served, wantServed, skipped)
	}
	if hits == 0 {
		t.Error("differential run exercised no cache hit")
	}
	t.Logf("differential: %d served, %d cache hits, %d skipped", served, hits, skipped)
}
