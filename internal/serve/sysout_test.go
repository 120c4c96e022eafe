package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"segbus/internal/conform"
	"segbus/internal/dsl"
)

// TestServeSystemOutputFlow serves the rendering of roles-2seg, whose
// P2 sends a flow to the system output ("P-1_36_4_10" in the PSDF
// scheme): the scheme parses, and the answer is the in-memory pair's
// report.
func TestServeSystemOutputFlow(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "testdata", "scenarios", "roles-2seg.sbd"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := dsl.Parse(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	c := conform.NewCase(doc)
	psdfXML, psmXML, err := c.Schemes()
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{Workers: 1, Queue: 2, CacheEntries: 8}).Handler()
	req := body(t, EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)})
	for _, want := range []string{"miss", "hit"} {
		rec := post(h, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Segbus-Cache"); got != want {
			t.Errorf("cache %q, want %q", got, want)
		}
		if err := c.CheckServed(rec.Body.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
}
