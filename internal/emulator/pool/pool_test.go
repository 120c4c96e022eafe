package pool

// Contract tests for the extracted machine pool: checkout accounting
// with raw counter handles, nil-safe metrics, default bounds and the
// shape-budget discard path. The serving-layer behavior (byte
// identity under concurrency, reconciliation against emulations) stays
// pinned by internal/serve's pool tests.

import (
	"sync"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/emulator"
	"segbus/internal/obs"
)

func TestDefaults(t *testing.T) {
	p := New(Options{})
	if p.perKey != DefaultPerKey || p.maxShapes != DefaultMaxShapes {
		t.Errorf("zero Options gave bounds %d/%d, want defaults %d/%d",
			p.perKey, p.maxShapes, DefaultPerKey, DefaultMaxShapes)
	}
	// Nil counter handles must be safe: a full get/put cycle with no
	// metrics wired may not panic.
	mc, warm := p.Get("k")
	if warm {
		t.Fatal("empty pool reported a hit")
	}
	p.Put("k", mc)
	if _, warm := p.Get("k"); !warm {
		t.Fatal("pooled machine not returned")
	}
}

func TestShapeKeyStructural(t *testing.T) {
	m := apps.MP3Model()
	k3 := ShapeKey(m, apps.MP3Platform3(36))
	if k2 := ShapeKey(m, apps.MP3Platform2(36)); k2 == k3 {
		t.Errorf("different platform shapes share key %q", k3)
	}
	if k := ShapeKey(m, apps.MP3Platform3(48)); k != k3 {
		t.Error("package size changed the shape key; storage shape is size-independent")
	}
}

func TestCountersAndBounds(t *testing.T) {
	reg := obs.NewRegistry()
	hits := reg.Counter("pool_hits")
	misses := reg.Counter("pool_misses")
	discards := reg.Counter("pool_discards")
	p := New(Options{PerKey: 2, MaxShapes: 1, Hits: hits, Misses: misses, Discards: discards})

	// Fill shape "a" to its per-key cap, then overflow it by one.
	a1, _ := p.Get("a")
	a2, _ := p.Get("a")
	a3, _ := p.Get("a")
	p.Put("a", a1)
	p.Put("a", a2)
	p.Put("a", a3) // over PerKey → discard
	if got := discards.Value(); got != 1 {
		t.Errorf("discards after per-key overflow = %d, want 1", got)
	}

	// A second shape exceeds MaxShapes → discard, shape not binned.
	b1, _ := p.Get("b")
	p.Put("b", b1)
	if got := discards.Value(); got != 2 {
		t.Errorf("discards after shape-budget overflow = %d, want 2", got)
	}
	shapes, machines := p.Stats()
	if shapes != 1 || machines != 2 {
		t.Errorf("Stats() = (%d shapes, %d machines), want (1, 2)", shapes, machines)
	}
	if hits.Value() != 0 || misses.Value() != 4 {
		t.Errorf("hits=%d misses=%d after four cold checkouts", hits.Value(), misses.Value())
	}
	if _, warm := p.Get("a"); !warm {
		t.Fatal("warm checkout missed")
	}
	if hits.Value() != 1 {
		t.Errorf("hits=%d after one warm checkout", hits.Value())
	}
}

// TestConcurrentCheckout exercises the lock under contention; run
// under -race by the suite.
func TestConcurrentCheckout(t *testing.T) {
	p := New(Options{PerKey: 4, MaxShapes: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := []string{"x", "y"}[g%2]
			for i := 0; i < 50; i++ {
				mc, _ := p.Get(key)
				p.Put(key, mc)
			}
		}(g)
	}
	wg.Wait()
	shapes, _ := p.Stats()
	if shapes > 8 {
		t.Errorf("shape budget exceeded: %d", shapes)
	}
}

// panicObserver blows up on the first stage start, mid-run.
type panicObserver struct{}

func (panicObserver) StageStarted(int, int64)               { panic("observer failure") }
func (panicObserver) TransferGranted(int, int64)            {}
func (panicObserver) PackageDelivered(int, int, int, int64) {}

// TestRunRecoversPanics pins Run's failure isolation: a panic becomes
// that call's error, a sibling run still succeeds, and a machine whose
// run panicked is dropped instead of going back on the free list.
func TestRunRecoversPanics(t *testing.T) {
	reg := obs.NewRegistry()
	hits, misses := reg.Counter("pool_hits"), reg.Counter("pool_misses")
	p := New(Options{Hits: hits, Misses: misses})
	m := apps.MP3Model()

	if r, err := p.Run(m, nil, emulator.Config{}); err == nil || r != nil {
		t.Fatalf("nil platform: report %v, err %v; want an error", r, err)
	}
	if _, err := p.Run(m, apps.MP3Platform3(36), emulator.Config{}); err != nil {
		t.Fatalf("sibling run failed: %v", err)
	}
	// The warm machine is checked out (a hit) and panics mid-run.
	if r, err := p.Run(m, apps.MP3Platform3(36), emulator.Config{Observer: panicObserver{}}); err == nil || r != nil {
		t.Fatalf("panicking run: report %v, err %v; want an error", r, err)
	}
	if _, machines := p.Stats(); machines != 0 {
		t.Errorf("%d machines free after the panicking run, want 0 (dropped)", machines)
	}
	// So the next run of that shape must construct a machine again.
	if _, err := p.Run(m, apps.MP3Platform3(36), emulator.Config{}); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != 1 || misses.Value() != 2 {
		t.Errorf("hits=%d misses=%d, want 1 and 2", hits.Value(), misses.Value())
	}
}
