package analyze

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/dsl"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// checkBounds asserts the bounds property the analyzer promises:
// the static lower bound never exceeds the emulator's estimate, which
// never exceeds the static upper bound.
func checkBounds(t *testing.T, label string, m *psdf.Model, plat *platform.Platform) {
	t.Helper()
	b, err := ComputeBounds(m, plat)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	r, err := emulator.Run(m, plat, emulator.Config{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	est := int64(r.ExecutionTimePs)
	if b.LowerPs <= 0 {
		t.Errorf("%s: non-positive lower bound %d", label, b.LowerPs)
	}
	if b.LowerPs > est {
		t.Errorf("%s: lower bound %d above estimate %d", label, b.LowerPs, est)
	}
	if est > b.UpperPs {
		t.Errorf("%s: estimate %d above upper bound %d", label, est, b.UpperPs)
	}
}

func TestBoundsWithinEmulatorMP3(t *testing.T) {
	m := apps.MP3Model()
	for _, s := range []int{18, 36, 72} {
		for _, pc := range []struct {
			name string
			plat *platform.Platform
		}{
			{"1seg", apps.MP3Platform1(s)},
			{"2seg", apps.MP3Platform2(s)},
			{"3seg", apps.MP3Platform3(s)},
			{"3seg-p9moved", apps.MP3Platform3MovedP9(s)},
		} {
			checkBounds(t, fmt.Sprintf("mp3 %s s=%d", pc.name, s), m, pc.plat)
		}
	}
}

func TestBoundsScenarioCorpus(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/scenarios/*.sbd")
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, "../../testdata/mp3.sbd")
	if len(paths) < 2 {
		t.Fatal("scenario corpus missing")
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := dsl.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if doc.Platform == nil {
			t.Fatalf("%s: scenario without platform", path)
		}
		checkBounds(t, filepath.Base(path), doc.Model, doc.Platform)
	}
}

// TestBoundsRandomSystems drives the property over random layered
// systems: ≥ 50 generated (model, platform) pairs with varying
// package sizes, segment counts and protocol tick costs.
func TestBoundsRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	const trials = 80
	for trial := 0; trial < trials; trial++ {
		pkg := []int{9, 18, 36, 72}[rng.Intn(4)]
		m := apps.RandomModel(rng, 5, 4, pkg)
		plat := apps.RandomPlatform(rng, m, 4, pkg)
		plat.HeaderTicks = rng.Intn(30)
		plat.CAHopTicks = rng.Intn(30)
		label := fmt.Sprintf("trial %d (s=%d, %d procs, %d segs)",
			trial, pkg, m.NumProcesses(), plat.NumSegments())
		checkBounds(t, label, m, plat)
	}
}

// TestBoundsTightOnSerialPipeline pins the bound quality where it can
// be reasoned about exactly: a single-process-per-stage pipeline on
// one segment is fully serial, so the critical-path lower bound must
// be within the alignment slack of the estimate.
func TestBoundsTightOnSerialPipeline(t *testing.T) {
	m := apps.Pipeline(6, 144, 50)
	plat := platform.New("serial", 100*platform.MHz, 36)
	plat.HeaderTicks = 10
	procs := m.Processes()
	seg := []psdf.ProcessID{}
	seg = append(seg, procs...)
	plat.AddSegment(100*platform.MHz, seg...)
	b, err := ComputeBounds(m, plat)
	if err != nil {
		t.Fatal(err)
	}
	r, err := emulator.Run(m, plat, emulator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	est := int64(r.ExecutionTimePs)
	if b.LowerPs > est || est > b.UpperPs {
		t.Fatalf("bounds [%d, %d] do not contain %d", b.LowerPs, b.UpperPs, est)
	}
	// Fully serial: the estimate exceeds the critical path only by
	// end-detection and per-package alignments.
	if est > 2*b.CriticalPathPs {
		t.Errorf("critical path %d too loose against serial estimate %d", b.CriticalPathPs, est)
	}
}

func TestComputeBoundsRejectsInvalidInputs(t *testing.T) {
	m := apps.MP3Model()
	bad := platform.New("bad", 0, 0)
	if _, err := ComputeBounds(m, bad); err == nil {
		t.Error("ComputeBounds accepted an invalid platform")
	}
	empty := psdf.NewModel("empty")
	if _, err := ComputeBounds(empty, apps.MP3Platform1(36)); err == nil {
		t.Error("ComputeBounds accepted an invalid model")
	}
	partial := platform.New("partial", 111*platform.MHz, 36)
	partial.AddSegment(100*platform.MHz, 0, 1)
	if _, err := ComputeBounds(m, partial); err == nil {
		t.Error("ComputeBounds accepted an incomplete mapping")
	}
}

// chain is the two-flow chain P0→P1→P2 at package size 1, items per
// flow: P0 and P1 on segment 1, P2 on segment 2, both clocked at
// 90 MHz under a 100 MHz CA, header 2 and CA-hop 3 ticks. The first
// flow stays on segment 1; the second crosses BU12 rightward.
func chain(items int) (*psdf.Model, *platform.Platform) {
	m := psdf.NewModel("chain")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: items, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: items, Order: 2, Ticks: 5})
	plat := platform.New("chain", 100*platform.MHz, 1)
	plat.HeaderTicks, plat.CAHopTicks = 2, 3
	plat.AddSegment(90*platform.MHz, 0, 1)
	plat.AddSegment(90*platform.MHz, 2)
	return m, plat
}

// boundsSink keeps BenchmarkComputeBounds' calls from being optimised
// away.
var boundsSink *Bounds

// BenchmarkComputeBounds measures ComputeBounds, admission included,
// on the paper's three-segment MP3 pair at s=36 and on the two-flow
// chain with 2·10⁷ items per flow at s=1 (4·10⁷ package transfers).
func BenchmarkComputeBounds(b *testing.B) {
	run := func(b *testing.B, m *psdf.Model, plat *platform.Platform) {
		if _, err := ComputeBounds(m, plat); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			boundsSink, _ = ComputeBounds(m, plat)
		}
	}
	b.Run("mp3", func(b *testing.B) {
		run(b, apps.MP3Model(), apps.MP3Platform3(apps.MP3PackageSize))
	})
	b.Run("chain2e7", func(b *testing.B) {
		m, plat := chain(2e7)
		run(b, m, plat)
	})
}

// TestComputeBoundsHostileSize runs the chain with 2³⁶ items per flow
// at s=1, 2³⁷ package transfers that a package-by-package walk could
// not finish, and checks the totals against hand-computed values.
func TestComputeBoundsHostileSize(t *testing.T) {
	const n = int64(1) << 36
	m, plat := chain(int(n))
	b, err := ComputeBounds(m, plat)
	if err != nil {
		t.Fatal(err)
	}
	const (
		period = int64(11111) // 90 MHz
		perPkg = 2 + 1        // header + one item
	)
	if b.TotalPackages != int(2*n) {
		t.Errorf("TotalPackages = %d, want 2^37", b.TotalPackages)
	}
	// Segment 1 carries both flows' transactions (P0→P1 and the fill
	// into BU12), segment 2 the unloads out of BU12.
	wantSegs := []SegmentLoad{
		{Segment: 1, BusTicks: 2 * n * perPkg, BusyPs: 2 * n * perPkg * period},
		{Segment: 2, BusTicks: n * perPkg, BusyPs: n * perPkg * period},
	}
	if !reflect.DeepEqual(b.Segments, wantSegs) {
		t.Errorf("Segments = %+v, want %+v", b.Segments, wantSegs)
	}
	if want := []BUCrossing{{Name: "BU12", Rightward: int(n)}}; !reflect.DeepEqual(b.Crossings, want) {
		t.Errorf("Crossings = %+v, want %+v", b.Crossings, want)
	}
	if b.CASetupTicks != 3*n {
		t.Errorf("CASetupTicks = %d, want %d", b.CASetupTicks, 3*n)
	}
	// Each package of P0→P1 costs 5 compute and 3 bus ticks; each of
	// P1→P2 as much, one 3-tick CA hop at 10 ns and a 3-tick unload.
	if want := n*8*period + n*(11*period+30000); b.CriticalPathPs != want {
		t.Errorf("CriticalPathPs = %d, want %d", b.CriticalPathPs, want)
	}
	if b.LowerPs > b.UpperPs {
		t.Errorf("LowerPs %d above UpperPs %d", b.LowerPs, b.UpperPs)
	}
}

// TestClosedFormWrapsLikeWalk holds computeBounds to the per-package
// walk on pairs whose int64 sums wrap: header, CA-hop and compute
// ticks near 2⁶², scaled by a nominal package size, with ragged last
// packages.
func TestClosedFormWrapsLikeWalk(t *testing.T) {
	for _, c := range []struct{ header, hop, ticks, nominal, items, s int }{
		{1 << 62, 0, 5, 0, 4, 2},
		{0, 1<<62 + 7, 5, 0, 9, 2},
		{3, 3, 1<<62 - 1, 0, 11, 3},
		{1 << 61, 1 << 60, 1<<62 + 1, 7, 23, 5},
	} {
		m, plat := chain(c.items)
		m.SetNominalPackageSize(c.nominal)
		for _, f := range m.Flows() {
			m.AddFlow(psdf.Flow{Source: f.Target, Target: psdf.SystemOutput, Items: c.items, Order: f.Order + 10, Ticks: c.ticks})
		}
		plat.HeaderTicks, plat.CAHopTicks, plat.PackageSize = c.header, c.hop, c.s
		got, _ := json.Marshal(computeBounds(m, plat))
		want, _ := json.Marshal(oraclePerPackageBounds(m, plat))
		if string(got) != string(want) {
			t.Errorf("%+v:\nclosed form %s\nper-package %s", c, got, want)
		}
	}
}
