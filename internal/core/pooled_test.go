package core

// The pooling seam: EstimateOn on a reused machine must produce report
// bytes identical to a fresh-machine Estimate.

import (
	"bytes"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

func pooledPairs() []struct {
	m    *psdf.Model
	plat *platform.Platform
} {
	return []struct {
		m    *psdf.Model
		plat *platform.Platform
	}{
		{apps.MP3Model(), apps.MP3Platform3(36)},
		{apps.JPEGModel(), apps.JPEGPlatform3(64)},
		{apps.MP3Model(), apps.MP3Platform2(36)},
	}
}

func TestReportJSONOnMatchesFresh(t *testing.T) {
	mc := emulator.NewMachine()
	for pass := 0; pass < 2; pass++ {
		for i, p := range pooledPairs() {
			fresh, err := reportJSON(nil, p.m, p.plat, Options{})
			if err != nil {
				t.Fatalf("pass %d pair %d: fresh: %v", pass, i, err)
			}
			pooled, err := reportJSON(mc, p.m, p.plat, Options{})
			if err != nil {
				t.Fatalf("pass %d pair %d: pooled: %v", pass, i, err)
			}
			if !bytes.Equal(pooled, fresh) {
				t.Errorf("pass %d pair %d: pooled report differs from fresh", pass, i)
			}
		}
	}
}

func TestEstimateOnHonoursOptions(t *testing.T) {
	mc := emulator.NewMachine()
	m, plat := apps.MP3Model(), apps.MP3Platform3(36)
	est, err := EstimateOn(mc, m, plat, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if est.Trace == nil || len(est.Trace.Intervals) == 0 {
		t.Error("EstimateOn with Trace produced no trace rows")
	}
	if len(est.BUs) == 0 {
		t.Error("EstimateOn produced no BU analysis")
	}

	// Preflight still gates the pooled path: the same-stage cycle
	// Estimate rejects (SB101) must be rejected before the machine is
	// touched.
	bad := psdf.NewModel("deadlock")
	bad.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 5})
	bad.AddFlow(psdf.Flow{Source: 1, Target: 0, Items: 36, Order: 1, Ticks: 5})
	pb := platform.New("p", 100*platform.MHz, 36)
	pb.AddSegment(100*platform.MHz, 0, 1)
	if _, err := EstimateOn(mc, bad, pb, Options{Preflight: true}); err == nil {
		t.Error("EstimateOn with Preflight accepted a model Estimate rejects")
	} else if _, ok := err.(*PreflightError); !ok {
		t.Errorf("EstimateOn preflight error has type %T, want *PreflightError", err)
	}
}
