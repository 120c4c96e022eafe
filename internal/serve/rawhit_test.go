//go:build !race

package serve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// rawHitAllocCeiling fences the allocations of one verbatim repeat
// served through the handler, httptest request and recorder included:
// 30 when the fence was set, plus 10%. A raw hit that fell through to
// the canonical pipeline (parse, key, cache probe) costs ~2,000.
const rawHitAllocCeiling = 33

// TestRawHitFence guards the raw-index fast path in-process, measuring
// this machine against itself: a verbatim repeat of a served request
// must be answered from the raw index — with a bounded allocation
// count, and in under a quarter of the time of a canonical hit (the
// same pair re-encoded uniquely, so it misses the raw index and is
// recognised by its parsed key). Interleaved min-of-N rounds keep a
// load spike from favouring either arm; the race detector's
// instrumentation would distort both figures, so the test only builds
// without -race.
func TestRawHitFence(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	verbatim := body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML})
	// Room for every re-encoded request below, so none evicts the
	// verbatim one from the raw index.
	s := New(Config{Workers: 1, Queue: 2, CacheEntries: 1024})
	h := s.Handler()
	if rec := post(h, verbatim); rec.Code != http.StatusOK {
		t.Fatalf("cold status %d: %s", rec.Code, rec.Body.String())
	}

	serveRaw := func() {
		if rec := post(h, verbatim); rec.Code != http.StatusOK {
			t.Fatalf("raw hit status %d", rec.Code)
		}
	}
	allocs := testing.AllocsPerRun(100, serveRaw)
	if allocs > rawHitAllocCeiling {
		t.Errorf("raw hit allocates %v times per request, ceiling %d", allocs, rawHitAllocCeiling)
	}

	// A comment after the PSDF's XML declaration changes the request
	// bytes but not the parsed pair.
	decl, rest, ok := strings.Cut(psdfXML, "\n")
	if !ok {
		t.Fatal("PSDF scheme has a single line")
	}
	const rounds, perRound = 5, 40
	reencoded := make([][]byte, rounds*perRound)
	for i := range reencoded {
		psdf := fmt.Sprintf("%s\n<!-- request %d -->\n%s", decl, i, rest)
		reencoded[i] = body(t, EstimateRequest{PSDF: psdf, PSM: psmXML})
	}

	best := func(serve func(i int)) time.Duration {
		m := time.Duration(1<<63 - 1)
		for i := 0; i < perRound; i++ {
			start := time.Now()
			serve(i)
			m = min(m, time.Since(start))
		}
		return m
	}
	raw, canonical := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for r := 0; r < rounds; r++ {
		raw = min(raw, best(func(int) { serveRaw() }))
		canonical = min(canonical, best(func(i int) {
			rec := post(h, reencoded[r*perRound+i])
			if rec.Code != http.StatusOK || rec.Header().Get("X-Segbus-Cache") != "hit" {
				t.Fatalf("re-encoded request: status %d, cache %q", rec.Code, rec.Header().Get("X-Segbus-Cache"))
			}
		}))
	}
	if _, ok := s.RawProbe(&EstimateRequest{PSDF: psdfXML, PSM: psmXML}); !ok {
		t.Error("the verbatim request is not in the raw index")
	}
	if raw*4 >= canonical {
		t.Errorf("raw hit min %v is not under a quarter of the canonical hit min %v", raw, canonical)
	}
	t.Logf("raw hit: %v allocs, min %v; canonical hit min %v (%.1f×)",
		allocs, raw, canonical, float64(canonical)/float64(raw))
}
