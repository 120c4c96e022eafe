package serve

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/core"
	"segbus/internal/emulator"
	"segbus/internal/emulator/pool"
	"segbus/internal/sched"
)

// mp3Request is the MP3 three-segment pair as an estimate request.
func mp3Request(b *testing.B) EstimateRequest {
	b.Helper()
	psdfXML, psmXML, err := core.Transform(apps.MP3Model(), apps.MP3Platform3(36))
	if err != nil {
		b.Fatal(err)
	}
	return EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)}
}

// mustMarshal renders v as JSON.
func mustMarshal(b *testing.B, v any) []byte {
	b.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkCacheHitBytes measures the raw-index fast path in
// isolation: per op, exactly what a verbatim repeat pays before the
// response write — hash the raw request fields and look up the
// pre-serialized bytes. TestRawHitFence measures the same path
// through the handler.
func BenchmarkCacheHitBytes(b *testing.B) {
	req := mp3Request(b)
	s := New(Config{Workers: 1, Queue: 2, CacheEntries: 8})
	if rec := post(s.Handler(), mustMarshal(b, req)); rec.Code != http.StatusOK {
		b.Fatalf("warmup status %d", rec.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.RawProbe(&req); !ok {
			b.Fatal("raw index miss on a warm server")
		}
	}
}

// BenchmarkPooledColdEstimate measures the pooled leader path after
// the fingerprint: a cache-missing request's emulation and report on a
// reused warm machine — validation, schedule extraction, in-place
// reconfiguration and the run, with no arena construction. Compare
// with emulator.BenchmarkMP3ThreeSegments, a fresh run.
func BenchmarkPooledColdEstimate(b *testing.B) {
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	machines := pool.New(pool.Options{})
	run := func() {
		r, err := machines.Run(sched.NewPair(m, p), emulator.Config{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.JSON(); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkBatchEstimate measures the warm batch path end to end: one
// POST /estimate/batch of eight items (four package-size variants,
// each twice) through the handler — envelope decode, per-item parse
// and key derivation, dedup, sharded-cache hits and the verbatim
// report splice.
func BenchmarkBatchEstimate(b *testing.B) {
	item := mp3Request(b)
	sizes := []int{36, 18, 12, 9}
	var req BatchRequest
	for i := 0; i < 8; i++ {
		item.PackageSize = sizes[i%len(sizes)]
		req.Items = append(req.Items, item)
	}
	body := mustMarshal(b, req)
	h := New(Config{Workers: 4, Queue: 8, CacheEntries: 64}).Handler()
	if rec := postBatch(h, body); rec.Code != http.StatusOK {
		b.Fatalf("warmup status %d", rec.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := postBatch(h, body); rec.Code != http.StatusOK {
			b.Fatalf("batch status %d", rec.Code)
		}
	}
}

// BenchmarkCoalescedHit measures the single-flight path under
// contention: per op, a fresh server (cold cache) takes four
// concurrent identical requests — one emulation, three waiters served
// from the published flight.
func BenchmarkCoalescedHit(b *testing.B) {
	body := mustMarshal(b, mp3Request(b))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := New(Config{Workers: 2, Queue: 8, CacheEntries: 8}).Handler()
		var wg sync.WaitGroup
		codes := make([]int, 4)
		for j := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				codes[j] = post(h, body).Code
			}()
		}
		wg.Wait()
		for _, code := range codes {
			if code != http.StatusOK {
				b.Fatalf("coalesced status %d", code)
			}
		}
	}
}

// BenchmarkTracedEstimate measures the fully traced cache-hit path:
// every request carries a sampled W3C traceparent, so each op pays for
// span recording across the stage breakdown, the snapshot assembly at
// Finish and the flight-recorder publish — the cost the unsampled path
// avoids and TestTracingOverheadSmoke bounds.
func BenchmarkTracedEstimate(b *testing.B) {
	body := mustMarshal(b, mp3Request(b))
	h := New(Config{Workers: 2, Queue: 8, CacheEntries: 8, TraceSample: 0}).Handler()
	const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	serve := func() {
		rec := postTraced(h, body, parent)
		if rec.Code != http.StatusOK {
			b.Fatalf("traced status %d", rec.Code)
		}
		if rec.Header().Get("X-Segbus-Trace") == "" {
			b.Fatal("traced request missing X-Segbus-Trace")
		}
	}
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
