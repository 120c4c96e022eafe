package power

// The profile is the pruning side of the energy model: these tests
// pin its two load-bearing claims — the static BU-crossing count
// equals what the emulator actually loads (so the "exact dynamic
// components" of the lower bound really are exact), and the lower
// bound never exceeds the estimate of a real run, whether priced at
// analyze's latency LB or at the actual execution time.

import (
	"testing"

	"segbus/internal/analyze"
	"segbus/internal/apps"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

func profilePairs() []struct {
	name string
	m    *psdf.Model
	plat *platform.Platform
} {
	return []struct {
		name string
		m    *psdf.Model
		plat *platform.Platform
	}{
		{"mp3-3seg", apps.MP3Model(), apps.MP3Platform3(36)},
		{"mp3-2seg", apps.MP3Model(), apps.MP3Platform2(36)},
		{"mp3-1seg", apps.MP3Model(), apps.MP3Platform1(36)},
		{"mp3-3seg-s12", apps.MP3Model(), apps.MP3Platform3(12)},
		{"pipeline", apps.Pipeline(6, 36, 16), func() *platform.Platform {
			p := platform.New("pipe-3", 100*platform.MHz, 36)
			p.AddSegment(100*platform.MHz, 0, 1)
			p.AddSegment(100*platform.MHz, 2, 3)
			p.AddSegment(100*platform.MHz, 4, 5)
			return p
		}()},
	}
}

func TestProfileMatchesRun(t *testing.T) {
	for _, tc := range profilePairs() {
		pf, err := NewProfile(tc.m, tc.plat, Params{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r, err := emulator.Run(tc.m, tc.plat, emulator.Config{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var loaded int64
		for _, bu := range r.BUs {
			loaded += bu.LoadTicks
		}
		if got := pf.TotalBUItems(); got != loaded {
			t.Errorf("%s: static BU crossings %d != emulated load ticks %d", tc.name, got, loaded)
		}
		est, err := Estimate(tc.m, tc.plat, r, Params{})
		if err != nil {
			t.Fatal(err)
		}
		var estBusItems int64
		for _, se := range est.Segments {
			estBusItems += se.BusItems
		}
		if got := pf.TotalBusItems(); got != estBusItems {
			t.Errorf("%s: profile bus items %d != estimate's %d", tc.name, got, estBusItems)
		}
	}
}

func TestLowerBoundNeverExceedsEstimate(t *testing.T) {
	for _, tc := range profilePairs() {
		pf, err := NewProfile(tc.m, tc.plat, Params{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r, err := emulator.Run(tc.m, tc.plat, emulator.Config{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		est, err := Estimate(tc.m, tc.plat, r, Params{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := analyze.ComputeBounds(tc.m, tc.plat)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if b.LowerPs > int64(r.ExecutionTimePs) {
			t.Fatalf("%s: latency LB %d above actual %d — bounds chain broken", tc.name, b.LowerPs, int64(r.ExecutionTimePs))
		}
		if lb := pf.LowerBoundPJ(b.LowerPs); lb > est.TotalPJ {
			t.Errorf("%s: energy LB %.6f pJ exceeds estimate %.6f pJ", tc.name, lb, est.TotalPJ)
		}
		// Even priced at the actual execution time the bound must hold:
		// the dynamic components are exact and SA/CA are nonnegative.
		if lb := pf.LowerBoundPJ(int64(r.ExecutionTimePs)); lb > est.TotalPJ {
			t.Errorf("%s: energy LB at actual latency %.6f pJ exceeds estimate %.6f pJ", tc.name, lb, est.TotalPJ)
		}
	}
}

// TestProfileRefusesUnhostedEndpoint pins the crossed-pair refusal: a
// six-process pipeline on a platform hosting only P0..P3 is an error
// from NewProfile and Estimate, not a panic in the route walk.
func TestProfileRefusesUnhostedEndpoint(t *testing.T) {
	m := apps.Pipeline(6, 36, 16)
	plat := platform.New("short", 100*platform.MHz, 36)
	plat.AddSegment(100*platform.MHz, 0, 1)
	plat.AddSegment(100*platform.MHz, 2, 3)
	const want = `power: flow P3->P4{D=36 T=4 C=16} has an endpoint on no segment of platform "short"`
	if _, err := NewProfile(m, plat, Params{}); err == nil || err.Error() != want {
		t.Errorf("NewProfile: error %v, want %q", err, want)
	}
	if _, err := Estimate(m, plat, &emulator.Report{}, Params{}); err == nil || err.Error() != want {
		t.Errorf("Estimate: error %v, want %q", err, want)
	}
}
