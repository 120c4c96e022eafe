package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/emulator"
	"segbus/internal/place"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

func TestEstimate(t *testing.T) {
	est, err := Estimate(apps.MP3Model(), apps.MP3Platform3(36), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Report == nil || est.Trace != nil {
		t.Error("unexpected estimation contents")
	}
	if len(est.BUs) != 2 {
		t.Errorf("BU analyses = %d", len(est.BUs))
	}
	if est.ExecutionTimePs() <= 0 {
		t.Error("no execution time")
	}
}

func TestEstimateWithTrace(t *testing.T) {
	est, err := Estimate(apps.MP3Model(), apps.MP3Platform3(36), Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if est.Trace == nil || len(est.Trace.Intervals) == 0 {
		t.Error("trace not recorded")
	}
}

func TestEstimatePropagatesValidation(t *testing.T) {
	if _, err := Estimate(psdf.NewModel("bad"), apps.MP3Platform3(36), Options{}); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestPreflightGatesEstimate(t *testing.T) {
	// A same-stage cycle with all inputs inside the cycle: preflight
	// must reject it and carry the liveness SB101 deadlock finding
	// alongside the structural ones.
	m := psdf.NewModel("deadlock")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 1, Target: 0, Items: 36, Order: 1, Ticks: 5})
	plat := platform.New("p", 100*platform.MHz, 36)
	plat.AddSegment(100*platform.MHz, 0, 1)

	_, err := Estimate(m, plat, Options{Preflight: true})
	perr, ok := err.(*PreflightError)
	if !ok {
		t.Fatalf("err = %v, want *PreflightError", err)
	}
	if !strings.Contains(perr.Error(), "SB101") {
		t.Errorf("preflight error lacks the cycle code: %v", perr)
	}
	found := false
	for _, d := range perr.Result.Diagnostics {
		if d.Code == "SB101" {
			found = true
		}
	}
	if !found {
		t.Error("PreflightError.Result does not carry the SB101 finding")
	}
}

func TestPreflightPassesCleanModel(t *testing.T) {
	est, err := Estimate(apps.MP3Model(), apps.MP3Platform3(36), Options{Preflight: true})
	if err != nil || est == nil {
		t.Fatalf("clean model rejected by preflight: %v", err)
	}
	res := Preflight(apps.MP3Model(), nil)
	if res.HasErrors() {
		t.Errorf("bare MP3 model fails preflight:\n%s", res)
	}
}

func TestTransformAndEstimateXML(t *testing.T) {
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	psdfXML, psmXML, err := Transform(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(psdfXML), "P1_576_1_250") {
		t.Error("PSDF XML malformed")
	}
	est, err := EstimateXML(psdfXML, psmXML, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Estimate(m, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(est.Report, direct.Report) {
		t.Error("XML path and direct path disagree")
	}
}

func TestEstimateXMLPackageSizeOverride(t *testing.T) {
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	psdfXML, psmXML, err := Transform(m, p)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateXML(psdfXML, psmXML, 18, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Report.PackageSize != 18 {
		t.Errorf("package size = %d, want override 18", est.Report.PackageSize)
	}
}

func TestEstimateXMLErrors(t *testing.T) {
	if _, err := EstimateXML([]byte("junk"), []byte("junk"), 0, Options{}); err == nil {
		t.Error("junk XML accepted")
	}
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	psdfXML, psmXML, err := Transform(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateXML(psdfXML, []byte("junk"), 0, Options{}); err == nil {
		t.Error("junk PSM accepted")
	}
	if _, err := EstimateXML([]byte("junk"), psmXML, 0, Options{}); err == nil {
		t.Error("junk PSDF accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	est, err := RoundTrip(apps.MP3Model(), apps.MP3Platform3(36), Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Estimate(apps.MP3Model(), apps.MP3Platform3(36), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.ExecutionTimePs() != direct.ExecutionTimePs() {
		t.Error("round trip changed the estimate")
	}
}

func TestAccuracyExperiment(t *testing.T) {
	acc, err := AccuracyExperiment("3seg/s36", apps.MP3Model(), apps.MP3Platform3(36))
	if err != nil {
		t.Fatal(err)
	}
	if acc.Percent() < 90 || acc.Percent() > 99.5 {
		t.Errorf("accuracy = %v%%", acc.Percent())
	}
	if acc.EstimatedPs >= acc.ActualPs {
		t.Error("estimation model should under-estimate the refined model")
	}
}

func TestExploreAndBest(t *testing.T) {
	m := apps.MP3Model()
	cands := []Candidate{
		{Label: "1seg", Platform: apps.MP3Platform1(36)},
		{Label: "2seg", Platform: apps.MP3Platform2(36)},
		{Label: "3seg", Platform: apps.MP3Platform3(36)},
		{Label: "3seg-p9", Platform: apps.MP3Platform3MovedP9(36)},
	}
	ranked, table := Explore(m, cands, 4)
	if len(ranked) != 4 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	for _, r := range ranked {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Candidate.Label, r.Err)
		}
	}
	if !strings.Contains(table, "configuration") || !strings.Contains(table, "3seg") {
		t.Errorf("table:\n%s", table)
	}
	best, err := Best(ranked)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranked {
		if r.Err == nil && r.Report.ExecutionTimePs < best.Report.ExecutionTimePs {
			t.Error("Best did not pick the fastest")
		}
	}
}

func TestBestAllFailed(t *testing.T) {
	if _, err := Best([]Ranked{{Err: errFake}}); err == nil {
		t.Error("Best with only failures succeeded")
	}
	if _, err := Best(nil); err == nil {
		t.Error("Best(nil) succeeded")
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

func TestPlatformFromAllocation(t *testing.T) {
	a := place.Allocation{Segments: 2, Of: map[psdf.ProcessID]int{0: 0, 1: 0, 2: 1}}
	clocks := []platform.Hz{90 * platform.MHz, 95 * platform.MHz}
	p, err := PlatformFromAllocation("auto", a, clocks, 100*platform.MHz, 36, 25, 25)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSegments() != 2 || p.SegmentOf(2) != 2 || p.HeaderTicks != 25 {
		t.Errorf("platform = %v", p)
	}
	if _, err := PlatformFromAllocation("bad", a, clocks[:1], 100*platform.MHz, 36, 0, 0); err == nil {
		t.Error("clock count mismatch accepted")
	}
	invalid := place.Allocation{Segments: 2, Of: map[psdf.ProcessID]int{0: 0}}
	if _, err := PlatformFromAllocation("bad", invalid, clocks, 100*platform.MHz, 36, 0, 0); err == nil {
		t.Error("invalid allocation accepted")
	}
}

func TestAutoPlace(t *testing.T) {
	m := apps.MP3Model()
	clocks := []platform.Hz{91 * platform.MHz, 98 * platform.MHz, 89 * platform.MHz}
	p, err := AutoPlace("auto3", m, clocks, 111*platform.MHz, 36, 25, 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := p.ValidateMapping(m); err != nil {
		t.Fatal(err)
	}
	// The auto-placed platform must be emulatable.
	if _, err := Estimate(m, p, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestExploreIsolatesFailures(t *testing.T) {
	m := apps.MP3Model()
	broken := platform.New("broken", 100*platform.MHz, 36)
	broken.AddSegment(100*platform.MHz, 0) // incomplete mapping
	ranked, table := Explore(m, []Candidate{
		{Label: "bad", Platform: broken},
		{Label: "good", Platform: apps.MP3Platform3(36)},
	}, 2)
	if ranked[0].Err == nil {
		t.Error("broken candidate reported success")
	}
	if ranked[1].Err != nil {
		t.Errorf("healthy candidate failed: %v", ranked[1].Err)
	}
	if !strings.Contains(table, "good") || strings.Contains(table, "bad ") {
		t.Errorf("table should rank only successes:\n%s", table)
	}
	best, err := Best(ranked)
	if err != nil || best.Candidate.Label != "good" {
		t.Errorf("Best = %v, %v", best.Candidate.Label, err)
	}
}

// TestExploreMatchesFreshRuns pins the pooled batch path to fresh
// emulations on mixed platform shapes. Every report is compared only
// after the whole batch has finished, so a report that aliased a
// machine reused after its return to the pool would show up here. The
// failing candidate must keep its exact error text, in place.
func TestExploreMatchesFreshRuns(t *testing.T) {
	m := apps.MP3Model()
	var cands []Candidate
	for _, size := range []int{12, 18, 36} {
		for _, p := range []*platform.Platform{apps.MP3Platform1(size), apps.MP3Platform2(size), apps.MP3Platform3(size)} {
			cands = append(cands, Candidate{Label: fmt.Sprintf("%s/s=%d", p.Name, size), Platform: p})
		}
	}
	bad := apps.MP3Platform3(36)
	bad.PackageSize = -5 // rejected by validation
	cands = append(cands[:4], append([]Candidate{{Label: "bad", Platform: bad}}, cands[4:]...)...)

	for _, workers := range []int{1, 3} {
		ranked, _ := Explore(m, cands, workers)
		if len(ranked) != len(cands) {
			t.Fatalf("workers=%d: %d outcomes for %d candidates", workers, len(ranked), len(cands))
		}
		for i, r := range ranked {
			if r.Candidate.Label != cands[i].Label {
				t.Fatalf("workers=%d: outcome %d is %q, want %q", workers, i, r.Candidate.Label, cands[i].Label)
			}
			want, wantErr := emulator.Run(m, cands[i].Platform, emulator.Config{})
			if wantErr != nil {
				if r.Err == nil || r.Err.Error() != wantErr.Error() {
					t.Errorf("workers=%d %s: err %v, want %v", workers, r.Candidate.Label, r.Err, wantErr)
				}
				continue
			}
			if r.Err != nil {
				t.Errorf("workers=%d %s: %v", workers, r.Candidate.Label, r.Err)
				continue
			}
			if !reflect.DeepEqual(r.Report, want) {
				t.Errorf("workers=%d %s: pooled report differs from a fresh run", workers, r.Candidate.Label)
			}
		}
		if ranked[4].Err == nil {
			t.Errorf("workers=%d: invalid candidate reported success", workers)
		}
	}
}
