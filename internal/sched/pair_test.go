package sched

import (
	"sync"
	"testing"

	"segbus/internal/platform"
	"segbus/internal/psdf"
)

func chainPlatform(packageSize int) *platform.Platform {
	p := platform.New("chain-plat", 100*platform.MHz, packageSize)
	p.AddSegment(100*platform.MHz, 0, 1)
	p.AddSegment(100*platform.MHz, 2)
	return p
}

// TestPairRecordsEveryCheck: each failed check is recorded on its own,
// Err returns the first in admission order, and a bare model takes the
// nominal package size (1 when unset).
func TestPairRecordsEveryCheck(t *testing.T) {
	if p := NewPair(chain(), chainPlatform(36)); p.Err() != nil || p.PackageSize != 36 {
		t.Fatalf("valid pair: err %v, package size %d", p.Err(), p.PackageSize)
	}

	bad := chain()
	bad.AddFlow(psdf.Flow{Source: 1, Target: 1, Items: 1, Order: 3, Ticks: 1}) // SB006
	plat := chainPlatform(0)                                                   // SB021
	plat.Segments[1].FUs[0].Kind = platform.MasterOnly                         // SB032
	plat.AddSegment(100*platform.MHz, 7)                                       // SB030
	p := NewPair(bad, plat)
	if p.ModelErr == nil || p.PlatformErr == nil || p.MappingErr == nil || p.RolesErr == nil {
		t.Fatalf("want every check to fail, got %v / %v / %v / %v", p.ModelErr, p.PlatformErr, p.MappingErr, p.RolesErr)
	}
	if p.Err().Error() != p.ModelErr.Error() {
		t.Errorf("Err() = %v, want the model's failure first", p.Err())
	}

	if p := NewPair(chain(), nil); p.Err() != nil || p.PackageSize != 1 {
		t.Errorf("bare model: err %v, package size %d, want nil and 1", p.Err(), p.PackageSize)
	}
	m := chain()
	m.SetNominalPackageSize(18)
	if p := NewPair(m, nil); p.PackageSize != 18 {
		t.Errorf("bare model with nominal 18: package size %d", p.PackageSize)
	}
}

// TestPairScheduleOnce: concurrent callers share one extraction.
func TestPairScheduleOnce(t *testing.T) {
	p := NewPair(chain(), chainPlatform(36))
	want, err := Extract(chain(), 36)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Schedule, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = p.Schedule()
		}(i)
	}
	wg.Wait()
	for i, s := range got {
		if s != got[0] {
			t.Fatalf("caller %d got a second schedule", i)
		}
	}
	if got[0].TotalPackages() != want.TotalPackages() || got[0].NumStages() != want.NumStages() {
		t.Errorf("schedule differs from Extract's")
	}
}
