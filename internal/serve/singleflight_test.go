package serve

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segbus/internal/obs"
)

// TestSingleFlightCoalesces is the deterministic coalescing proof: K
// concurrent identical requests trigger exactly one emulation (counted
// by the injected OnEmulate hook), and every waiter receives bytes
// identical to the leader's. The leader is held
// inside its emulation until every other request has attached to the
// flight, so the K-1 waiters provably take the coalesced path rather
// than racing the cache fill.
func TestSingleFlightCoalesces(t *testing.T) {
	const k = 6
	psdfXML, psmXML := goldenSchemes(t)
	reqBody := body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML})

	var emulations atomic.Int64
	release := make(chan struct{})
	var joined sync.WaitGroup
	joined.Add(k - 1)

	reg := obs.NewRegistry()
	s := New(Config{
		Workers: 4, Queue: 8, CacheEntries: 8, Registry: reg,
		OnEmulate: func() {
			emulations.Add(1)
			<-release // hold the leader until all waiters have joined
		},
	})
	s.flights.waiterHook = func(string) { joined.Done() }
	h := s.Handler()

	type result struct {
		status int
		cache  string
		body   []byte
	}
	results := make([]result, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(h, reqBody)
			results[i] = result{rec.Code, rec.Header().Get("X-Segbus-Cache"), rec.Body.Bytes()}
		}(i)
	}
	// Release the leader only once every other request is provably
	// parked on the flight.
	joined.Wait()
	close(release)
	wg.Wait()

	if got := emulations.Load(); got != 1 {
		t.Fatalf("%d identical concurrent requests ran %d emulations, want exactly 1", k, got)
	}
	var miss, coalesced int
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Errorf("request %d returned different bytes than request 0", i)
		}
		switch r.cache {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("request %d: cache marker %q", i, r.cache)
		}
	}
	if miss != 1 || coalesced != k-1 {
		t.Errorf("markers: %d miss, %d coalesced; want 1 and %d", miss, coalesced, k-1)
	}
	snap := reg.Snapshot(false)
	if got := snap[obs.MetricServedCoalesced]; got != k-1 {
		t.Errorf("coalesced counter %v, want %d", got, k-1)
	}
	if got := snap[obs.MetricServedCacheMisses]; got != 1 {
		t.Errorf("miss counter %v, want 1", got)
	}
}

// TestSingleFlightSequentialIsOneEmulation is the cache/flight
// interplay without forced overlap: however the schedule lands,
// identical requests against a warm-capable cache cost one emulation
// total — stragglers that miss the flight hit the cache instead
// (leaders re-probe after winning, closing the probe/join race).
func TestSingleFlightSequentialIsOneEmulation(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	reqBody := body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML})
	var emulations atomic.Int64
	s := New(Config{Workers: 2, Queue: 4, CacheEntries: 8,
		OnEmulate: func() { emulations.Add(1) }})
	h := s.Handler()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				rec := post(h, reqBody)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := emulations.Load(); got != 1 {
		t.Fatalf("40 identical requests ran %d emulations, want 1", got)
	}
}

// TestSingleFlightLeaderShedCompletesFlight is the deadlock guard: a
// leader rejected at pool admission must still publish its flight, so
// waiters coalesced onto it get the same coded 429 instead of hanging
// forever — and once capacity returns, a fresh request succeeds (no
// stale flight, no leaked token).
func TestSingleFlightLeaderShedCompletesFlight(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	reqBody := body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML})
	s := New(Config{Workers: 1, Queue: 0, CacheEntries: 8})
	h := s.Handler()

	// Saturate the only worker slot from outside the flight machinery.
	block := make(chan struct{})
	started := make(chan struct{})
	go s.pool.Submit(context.Background(), func() {
		close(started)
		<-block
	})
	<-started

	const k = 4
	codes := make([]int, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(h, reqBody)
			codes[i] = rec.Code
		}(i)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("coalesced requests deadlocked behind a shed leader")
	}
	for i, code := range codes {
		if code != http.StatusTooManyRequests {
			t.Errorf("request %d: status %d, want 429", i, code)
		}
	}

	// Capacity back: the same request must now serve normally.
	close(block)
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := post(h, reqBody)
		if rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request still failing after capacity returned: %d %s", rec.Code, rec.Body.String())
		}
	}
}

// TestFlightGroupJoinPublish pins the group's contract directly:
// one leader per key at a time, waiters observe the published
// outcome, and a published key starts a fresh flight.
func TestFlightGroupJoinPublish(t *testing.T) {
	g := newFlightGroup()
	f1, leader := g.join("k")
	if !leader {
		t.Fatal("first join did not lead")
	}
	f2, leader2 := g.join("k")
	if leader2 || f2 != f1 {
		t.Fatal("second join did not attach to the in-flight leader")
	}
	if _, other := g.join("other"); !other {
		t.Fatal("distinct key did not lead its own flight")
	}
	g.publish("k", f1, outcome{status: http.StatusOK, body: []byte("r")})
	select {
	case <-f2.done:
	default:
		t.Fatal("publish did not wake the waiter")
	}
	if string(f2.out.body) != "r" {
		t.Fatalf("waiter outcome body %q", f2.out.body)
	}
	if _, fresh := g.join("k"); !fresh {
		t.Fatal("published key did not start a fresh flight")
	}
}
