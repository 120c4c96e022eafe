package sweep

import (
	"fmt"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/psdf"
)

// BenchmarkSweepPackageSizes times a package-size sweep over 16
// back-to-back MP3 frames on the paper's three-segment platform, at
// one and two workers: the curve the sweep_heavy workload of segbench
// measures.
func BenchmarkSweepPackageSizes(b *testing.B) {
	m, err := psdf.Repeat(apps.MP3Model(), 16)
	if err != nil {
		b.Fatal(err)
	}
	base := apps.MP3Platform3(apps.MP3PackageSize)
	sizes := []int{1, 2, 3, 4, 6, 8, 12, 16}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := Options{Workers: workers, Seed: 1}
			for i := 0; i < b.N; i++ {
				for _, pt := range PackageSizes(m, base, sizes, o).Points {
					if pt.Err != nil {
						b.Fatal(pt.Err)
					}
				}
			}
		})
	}
}
