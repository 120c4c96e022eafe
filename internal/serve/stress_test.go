package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segbus/internal/apps"
	"segbus/internal/core"
	"segbus/internal/obs"
	"segbus/internal/platform"
)

// TestServeStress drives the real HTTP stack with N goroutines × M
// mixed cached/uncached requests against a deliberately small pool,
// so cache races, queue-full shedding and slot recycling all happen
// at once. Its value is the schedule churn under -race, so it is
// skipped in -short runs and given extra rounds by scripts/check.sh.
func TestServeStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}

	// A small model keeps each cold emulation cheap; package-size
	// variants make distinct cache keys on demand.
	m := apps.Pipeline(4, 36, 10)
	plat := platform.New("stress-plat", 100*platform.MHz, 36)
	plat.AddSegment(100*platform.MHz, 0, 1)
	plat.AddSegment(100*platform.MHz, 2, 3)
	psdfXML, psmXML, err := core.Transform(m, plat)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s := New(Config{Workers: 2, Queue: 2, CacheEntries: 4, RequestTimeout: 5 * time.Second, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const goroutines = 8
	const requests = 25
	sizes := []int{36, 18, 12, 9, 6} // small key space: hits and misses mix

	bodies := make(map[int][]byte, len(sizes))
	for _, size := range sizes {
		b, err := json.Marshal(EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML), PackageSize: size})
		if err != nil {
			t.Fatal(err)
		}
		bodies[size] = b
	}
	// One canonical answer per size, to check every 200 against.
	want := make(map[int][]byte, len(sizes))
	for _, size := range sizes {
		p2 := plat.Clone()
		p2.PackageSize = size
		want[size] = freshReport(t, m, p2)
	}

	var ok200, shed429 atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				size := sizes[(g+i)%len(sizes)]
				resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(bodies[size]))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("goroutine %d: read: %v", g, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
					if !bytes.Equal(body, want[size]) {
						t.Errorf("goroutine %d: size %d: response differs from canonical report", g, size)
						return
					}
				case http.StatusTooManyRequests:
					shed429.Add(1) // expected under saturation
					var e ErrorResponse
					if err := json.Unmarshal(body, &e); err != nil || e.Code != CodeQueueFull {
						t.Errorf("goroutine %d: malformed 429 body %q", g, body)
						return
					}
				default:
					t.Errorf("goroutine %d: status %d: %s", g, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if ok200.Load() == 0 {
		t.Fatal("stress run produced no successful response")
	}
	t.Logf("stress: %d ok, %d shed (429), cache entries %d",
		ok200.Load(), shed429.Load(), s.Cache().Len())

	// The shared state must balance: every estimate request is
	// accounted as exactly one of raw-hit/hit/miss/coalesced/shed.
	snap := reg.Snapshot(false)
	raw := snap[obs.MetricServedRawHits]
	hits := snap[obs.MetricServedCacheHits]
	misses := snap[obs.MetricServedCacheMisses]
	coalesced := snap[obs.MetricServedCoalesced]
	if raw+hits+misses+coalesced != float64(ok200.Load()) {
		t.Errorf("raw(%v)+hits(%v)+misses(%v)+coalesced(%v) != 200s(%d)", raw, hits, misses, coalesced, ok200.Load())
	}

	// The machine pool reconciles on its own axis: every executed
	// emulation checked out exactly one machine (hit or miss), and
	// every successful emulation is a cache miss, so with no failing
	// runs the two tallies agree.
	poolHits := snap[obs.MetricServedPoolHits]
	poolMisses := snap[obs.MetricServedPoolMisses]
	if poolHits+poolMisses != misses {
		t.Errorf("pool checkouts hit(%v)+miss(%v) != emulations(%v)", poolHits, poolMisses, misses)
	}
	if shed := snap[obs.MetricServedQueueFull]; shed != float64(shed429.Load()) {
		t.Errorf("queue-full counter %v != observed 429s %d", shed, shed429.Load())
	}

	// The per-shard probe tallies reconcile on their own axis: every
	// probe is a shard hit or a shard miss, and the sums cover at
	// least one probe per handler-level hit/miss (leaders may probe
	// twice — once before and once after winning their flight).
	var shardHits, shardMisses float64
	for _, st := range s.Cache().ShardStats() {
		shardHits += float64(st.Hits)
		shardMisses += float64(st.Misses)
	}
	if shardHits < hits || shardMisses < misses {
		t.Errorf("shard probe tallies (%v hits, %v misses) below handler tallies (%v, %v)",
			shardHits, shardMisses, hits, misses)
	}
}
