package serve

// Machine-pool and raw-index behavior at the serving layer: checkout
// accounting, capacity discards, byte-identity of pooled results
// under concurrency, and the zero-allocation guarantee of the raw
// fast path.

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
	"segbus/internal/emulator/pool"
	"segbus/internal/obs"
	"segbus/internal/platform"
)

func TestShapeKey(t *testing.T) {
	m1, p1 := apps.MP3Model(), apps.MP3Platform3(36)
	m2, p2 := apps.MP3Model(), apps.MP3Platform2(36)
	if pool.ShapeKey(m1, p1) == pool.ShapeKey(m2, p2) {
		t.Errorf("different platform shapes share key %q", pool.ShapeKey(m1, p1))
	}
	if pool.ShapeKey(m1, p1) != pool.ShapeKey(apps.MP3Model(), apps.MP3Platform3(48)) {
		t.Error("package size changed the shape key; it must not (storage shape is size-independent)")
	}
}

// TestMachinePoolCheckout pins the pool contract: a miss constructs,
// a put makes the next get of the same shape a hit, the per-shape cap
// discards the overflow, and every transition lands in its counter.
func TestMachinePoolCheckout(t *testing.T) {
	reg := obs.NewRegistry()
	p := newMachinePool(obs.NewServerMetrics(reg))
	key := "test-shape"

	mc, warm := p.Get(key)
	if warm {
		t.Fatal("empty pool reported a hit")
	}
	p.Put(key, mc)
	if _, warm = p.Get(key); !warm {
		t.Fatal("pooled machine not returned on the next checkout")
	}
	p.Put(key, mc)

	// Overflow the per-shape cap: DefaultPerKey stay pooled, extras drop.
	for i := 0; i < pool.DefaultPerKey+2; i++ {
		fresh, _ := p.Get("other-shape")
		p.Put(key, fresh)
	}
	shapes, machines := p.Stats()
	if machines != pool.DefaultPerKey {
		t.Errorf("pool holds %d machines for one hot shape, want %d", machines, pool.DefaultPerKey)
	}
	if shapes < 1 {
		t.Errorf("pool shape count %d", shapes)
	}

	snap := reg.Snapshot(false)
	if d := snap[obs.MetricServedPoolDiscards]; d < 2 {
		t.Errorf("discard counter %v after overflowing the cap by 2+", d)
	}
	hits := snap[obs.MetricServedPoolHits]
	misses := snap[obs.MetricServedPoolMisses]
	if hits+misses == 0 || misses == 0 {
		t.Errorf("checkout counters hits=%v misses=%v", hits, misses)
	}
}

// TestMachinePoolStress hammers /estimate from many goroutines with a
// mix of platform shapes and package sizes, with a cache too small to
// absorb the key space — so pooled machines are checked out, reused
// across different shapes and returned concurrently. Every 200 must
// be byte-identical to the canonical single-shot report; afterwards
// the pool counters must reconcile exactly with the emulations
// executed. Run under -race by scripts/check.sh.
func TestMachinePoolStress(t *testing.T) {
	if testing.Short() {
		t.Skip("pool stress skipped in -short mode")
	}

	m := apps.Pipeline(5, 36, 8)
	plat2 := platform.New("pool-2seg", 100*platform.MHz, 36)
	plat2.AddSegment(100*platform.MHz, 0, 1, 2)
	plat2.AddSegment(100*platform.MHz, 3, 4)
	plat3 := platform.New("pool-3seg", 100*platform.MHz, 36)
	plat3.AddSegment(100*platform.MHz, 0, 1)
	plat3.AddSegment(100*platform.MHz, 2, 3)
	plat3.AddSegment(100*platform.MHz, 4)

	type variant struct {
		body []byte
		want []byte
	}
	var variants []variant
	for _, plat := range []*platform.Platform{plat2, plat3} {
		psdfXML, psmXML, err := core.Transform(m, plat)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{36, 18, 12, 9} {
			b, err := json.Marshal(EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML), PackageSize: size})
			if err != nil {
				t.Fatal(err)
			}
			p2 := plat.Clone()
			p2.PackageSize = size
			variants = append(variants, variant{body: b, want: freshReport(t, m, p2)})
		}
	}

	reg := obs.NewRegistry()
	var emulations atomic.Int64
	s := New(Config{
		Workers: 4, Queue: 64, CacheEntries: 4, RequestTimeout: 10 * time.Second,
		Registry:  reg,
		OnEmulate: func() { emulations.Add(1) },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const goroutines = 8
	const requests = 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				v := variants[(g*3+i)%len(variants)]
				resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(v.body))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("goroutine %d: read: %v", g, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: status %d: %s", g, resp.StatusCode, got)
					return
				}
				if !bytes.Equal(got, v.want) {
					t.Errorf("goroutine %d request %d: pooled response differs from canonical report", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	snap := reg.Snapshot(false)
	poolHits := snap[obs.MetricServedPoolHits]
	poolMisses := snap[obs.MetricServedPoolMisses]
	if got := poolHits + poolMisses; got != float64(emulations.Load()) {
		t.Errorf("pool checkouts %v != emulations executed %d", got, emulations.Load())
	}
	if emulations.Load() > int64(len(variants)) && poolHits == 0 {
		t.Error("repeated emulations never hit the machine pool")
	}
	if shapes, _ := s.machines.Stats(); shapes > pool.DefaultMaxShapes {
		t.Errorf("pool binned %d shapes, cap is %d", shapes, pool.DefaultMaxShapes)
	}
}

// TestRawProbeAllocs pins the raw fast path's steady-state allocation
// count at zero: hashing the request fields chunk-wise through the
// pooled scratch and probing the byte-keyed shard must not touch the
// heap. This is the serving half of the "cache hit copies one
// []byte" claim; the benchmark serve/cache_hit_bytes measures its
// latency.
func TestRawProbeAllocs(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	s := New(Config{Workers: 1, Queue: 1, CacheEntries: 8})
	h := s.Handler()
	req := EstimateRequest{PSDF: psdfXML, PSM: psmXML}
	if rec := post(h, body(t, req)); rec.Code != http.StatusOK {
		t.Fatalf("warmup status %d: %s", rec.Code, rec.Body.String())
	}
	if _, ok := s.RawProbe(&req); !ok {
		t.Fatal("raw index not populated by the 200 response")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := s.RawProbe(&req); !ok {
			t.Fatal("raw probe lost its entry")
		}
	})
	if allocs != 0 {
		t.Errorf("RawProbe allocates %v per call, want 0", allocs)
	}
}

// TestRawIndexByteIdentity pins the fast path's correctness and
// isolation: a verbatim repeat serves the cold run's exact bytes, a
// batch request never populates or consults the raw index, and a
// request differing in any option field misses it.
func TestRawIndexByteIdentity(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, Queue: 2, CacheEntries: 8, Registry: reg})
	h := s.Handler()

	cold := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML}))
	if cold.Code != http.StatusOK {
		t.Fatalf("cold status %d", cold.Code)
	}
	warm := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML}))
	if warm.Code != http.StatusOK || !bytes.Equal(warm.Body.Bytes(), cold.Body.Bytes()) {
		t.Error("raw hit served different bytes than the cold run")
	}
	if raw := reg.Snapshot(false)[obs.MetricServedRawHits]; raw != 1 {
		t.Errorf("raw hit counter %v after one verbatim repeat", raw)
	}

	// Any option change is a different raw key.
	if _, ok := s.RawProbe(&EstimateRequest{PSDF: psdfXML, PSM: psmXML, DetectTicks: 1}); ok {
		t.Error("option variant hit the raw index")
	}
	// Field-boundary injectivity: moving a byte between PSDF and PSM
	// must change the key even though the concatenation is identical.
	if _, ok := s.RawProbe(&EstimateRequest{PSDF: psdfXML + "x", PSM: psmXML}); ok {
		t.Error("suffixed scheme hit the raw index")
	}
}
