//go:build !race

package serve

import (
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestColdEstimateAllocs fences one cold in-process /estimate of the
// golden MP3 pair — parse, key, preflight, pooled emulation and report
// — at a ceiling set from measurement, so no consumer of the pair
// preflight admitted goes back to validating it. (Under the race
// detector sync.Pool drops entries at random, so the count is not
// stable there.)
func TestColdEstimateAllocs(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	const runs = 20
	bodies := make([][]byte, runs+1)
	for i := range bodies {
		// A distinct detect latency per request: every one misses
		// the raw index and the cache.
		bodies[i] = body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML, DetectTicks: int64(i + 1)})
	}
	s := New(Config{Workers: 1, Queue: 1, CacheEntries: 2 * runs})
	h := s.Handler()
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		rec := post(h, bodies[next])
		next++
		if rec.Code != http.StatusOK || rec.Header().Get("X-Segbus-Cache") != "miss" {
			t.Fatalf("status %d, cache %q", rec.Code, rec.Header().Get("X-Segbus-Cache"))
		}
	})
	t.Logf("%.0f allocations per cold /estimate", allocs)
	if allocs > coldEstimateAllocs {
		t.Errorf("a cold /estimate allocates %.0f times, want <= %d", allocs, coldEstimateAllocs)
	}
}

// coldEstimateAllocs is the measured 301 plus slack. It was 336 while
// the report was encoded by encoding/json's MarshalIndent, 774 when
// scheme parsing, model validation and the process-set readers still
// built maps, and 1,041 at the parent of the shared admission; the
// emulator's former prologue alone added 139 allocations (MP3 model
// check 76, platform 20, mapping 27, roles 4, extraction 12).
const coldEstimateAllocs = 325

// TestCanonicalHitAllocs fences one canonical hit of the golden MP3
// pair through the handler — decode, raw key, parse, validation, key
// and cache probe, httptest request and recorder included — at a
// ceiling set from measurement: each request re-encodes the pair with
// a fresh comment, so it misses the raw index and hits the cache.
func TestCanonicalHitAllocs(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	decl, rest, ok := strings.Cut(psdfXML, "\n")
	if !ok {
		t.Fatal("PSDF scheme has a single line")
	}
	const runs = 50
	bodies := make([][]byte, runs+2)
	for i := range bodies {
		psdf := decl + "\n<!-- request " + strconv.Itoa(i) + " -->\n" + rest
		bodies[i] = body(t, EstimateRequest{PSDF: psdf, PSM: psmXML})
	}
	s := New(Config{Workers: 1, Queue: 1, CacheEntries: 4 * runs})
	h := s.Handler()
	if rec := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML})); rec.Code != http.StatusOK {
		t.Fatalf("warming status %d", rec.Code)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		rec := post(h, bodies[next])
		next++
		if rec.Code != http.StatusOK || rec.Header().Get("X-Segbus-Cache") != "hit" {
			t.Fatalf("status %d, cache %q", rec.Code, rec.Header().Get("X-Segbus-Cache"))
		}
	})
	t.Logf("%.0f allocations per canonical hit", allocs)
	if allocs > canonicalHitAllocs {
		t.Errorf("a canonical hit allocates %.0f times, want <= %d", allocs, canonicalHitAllocs)
	}
}

// canonicalHitAllocs is the measured 96 plus slack. When scheme
// parsing and model validation still built maps and grew a slice per
// group, the same request took 405.
const canonicalHitAllocs = 105
