package core_test

import (
	"testing"

	"segbus/internal/apps"
	"segbus/internal/core"
	"segbus/internal/psdf"
)

// mp3x16 returns 16 back-to-back MP3 frames on the paper's
// three-segment platform.
func mp3x16(tb testing.TB) keyPair {
	tb.Helper()
	m, err := psdf.Repeat(apps.MP3Model(), 16)
	if err != nil {
		tb.Fatal(err)
	}
	return keyPair{"16×mp3", m, apps.MP3Platform3(apps.MP3PackageSize)}
}

// TestPreflightAllocs fences preflight's allocations on the passing
// MP3 pair. The schedule fixpoint decides its verdict, so no automata
// product is built, and the pair is admitted once for both analyzers:
// 301 allocations, against 427 when the structural and liveness
// analyzers each validated the pair, 506 when the product was compiled
// as well and 1,608 when every pair was compiled into the product and
// checked.
func TestPreflightAllocs(t *testing.T) {
	m, p := apps.MP3Model(), apps.MP3Platform3(apps.MP3PackageSize)
	allocs := testing.AllocsPerRun(50, func() {
		if res := core.Preflight(m, p); res.HasErrors() {
			t.Fatalf("MP3 fails preflight: %v", res.Diagnostics)
		}
	})
	if allocs > 330 {
		t.Errorf("Preflight allocates %.0f times on MP3, want <= 330", allocs)
	}
}

// BenchmarkPreflight measures core.Preflight on the MP3 pair, on 16
// back-to-back MP3 frames and over the first 256 servable conformance
// pairs, parsed as the service sees them; every pair passes.
func BenchmarkPreflight(b *testing.B) {
	run := func(b *testing.B, pairs []keyPair) {
		for _, p := range pairs {
			if res := core.Preflight(p.m, p.plat); res.HasErrors() {
				b.Fatalf("%s fails preflight: %v", p.name, res.Diagnostics)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			core.Preflight(p.m, p.plat)
		}
	}
	b.Run("mp3", func(b *testing.B) {
		run(b, []keyPair{{"mp3", apps.MP3Model(), apps.MP3Platform3(apps.MP3PackageSize)}})
	})
	b.Run("mp3x16", func(b *testing.B) {
		run(b, []keyPair{mp3x16(b)})
	})
	b.Run("serve256", func(b *testing.B) {
		names, docs := servedSchemes(b, 256)
		pairs := make([]keyPair, len(docs))
		for i := range pairs {
			pairs[i] = parsePair(b, names[i], docs[i][0], docs[i][1])
		}
		run(b, pairs)
	})
}
