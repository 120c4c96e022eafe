//go:build !race

package analyze_test

import (
	"testing"

	"segbus/internal/analyze"
	"segbus/internal/apps"
)

// TestRunAllocs fences analyze.Run over the MP3 pair with every
// analyzer at a ceiling set from measurement (365 allocations), so the
// run keeps one admission and one Bounds: a second ComputeBounds adds
// 148 allocations, and any consumer's own model check alone 76. (The
// race detector's instrumentation allocates more, so the fence is
// built out under it.)
func TestRunAllocs(t *testing.T) {
	m, p := apps.MP3Model(), apps.MP3Platform3(apps.MP3PackageSize)
	allocs := testing.AllocsPerRun(50, func() {
		if res := analyze.RunModels(m, p, analyze.Options{}); res.HasErrors() || res.Bounds == nil {
			t.Fatalf("MP3 analysis: %v", res.Diagnostics)
		}
	})
	t.Logf("%.0f allocations per analysis", allocs)
	if allocs > 390 {
		t.Errorf("analyze.Run allocates %.0f times on MP3, want <= 390", allocs)
	}
}
