package automata_test

import (
	"testing"

	"segbus/internal/apps"
	"segbus/internal/automata"
	"segbus/internal/conform"
)

// BenchmarkExactReachability measures the exact reachability check on
// a terminating pair, the MP3 schedule on three segments, and on a
// deadlocking one: the seed-7 generated case 36's cyclic mutant at
// package size 1. Of the 200 seed-7 cyclic mutants it is the costliest
// for an exhaustive product search, which gives up after 2¹⁷ states.
func BenchmarkExactReachability(b *testing.B) {
	g := conform.NewGenerator(7, nil)
	for i := 0; i < 36; i++ {
		g.Next()
	}
	mut := conform.CyclicMutant(g.Next().Doc, 0)
	plat := mut.Platform.Clone()
	plat.PackageSize = 1
	cases := []struct {
		name string
		sys  func() (*automata.System, error)
		want automata.Verdict
	}{
		{"mp3-terminates", func() (*automata.System, error) {
			return automata.Compile(apps.MP3Model(), apps.MP3Platform3(36))
		}, automata.Terminates},
		{"seed7-cyclic-deadlocks", func() (*automata.System, error) {
			return automata.Compile(mut.Model, plat)
		}, automata.Deadlocks},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sys, err := c.sys()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := sys.Check(); res.Verdict != c.want {
					b.Fatalf("verdict %v, want %v", res.Verdict, c.want)
				}
			}
		})
	}
}
