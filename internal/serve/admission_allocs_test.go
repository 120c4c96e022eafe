//go:build !race

package serve

import (
	"net/http"
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

// coldEstimateAllocs is the measured 774 plus slack: the emulator's
// former prologue alone adds 139 allocations (MP3 model check 76,
// platform 20, mapping 27, roles 4, extraction 12); at the parent of
// the shared admission the request took 1,041.
const coldEstimateAllocs = 800
