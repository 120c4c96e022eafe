package explore

import (
	"testing"

	"segbus/internal/apps"
)

// BenchmarkPrunedSpace measures one bounds-pruned run of the
// 10240-candidate MP3 reference space, at the default worker count and
// on one worker (the scheduler's parallel benefit on this machine; on
// a single CPU the two coincide).
func BenchmarkPrunedSpace(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"default", 0}, {"workers=1", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			m := apps.MP3Model()
			space := ReferenceMP3Space()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(m, space, Options{Workers: bc.workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Errors > 0 {
					b.Fatalf("%d explorer candidate errors", res.Errors)
				}
				if res.PruningRatio < 0.5 {
					b.Fatalf("pruning ratio %.3f below the 0.5 floor", res.PruningRatio)
				}
			}
		})
	}
}

// BenchmarkExhaustiveSmall measures a 54-candidate space emulated
// exhaustively (pruning off): the per-candidate cost baseline the
// pruned run's savings are judged against.
func BenchmarkExhaustiveSmall(b *testing.B) {
	m := apps.MP3Model()
	space := &Space{
		Name:         "bench-small",
		Segments:     []int{1, 2, 3},
		PackageSizes: []int{9, 18, 36},
		HeaderTicks:  []int{0, 25, 100},
		CAHopTicks:   []int{0, 100},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(m, space, Options{NoPrune: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Emulated != space.Size() {
			b.Fatalf("exhaustive run emulated %d of %d", res.Emulated, space.Size())
		}
	}
}
