package automata_test

import (
	"testing"

	"segbus/internal/apps"
	"segbus/internal/automata"
)

// BenchmarkExactReachability measures the exact reachability check of
// the MP3 schedule on three segments, which must terminate.
func BenchmarkExactReachability(b *testing.B) {
	sys, err := automata.Compile(apps.MP3Model(), apps.MP3Platform3(36))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := sys.Check(automata.Options{}); res.Verdict != automata.Terminates {
			b.Fatalf("MP3 schedule verdict %v, want terminates", res.Verdict)
		}
	}
}
