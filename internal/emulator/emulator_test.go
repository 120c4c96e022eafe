package emulator

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"segbus/internal/engine"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/trace"
)

// twoProc returns a one-segment platform hosting P0 and P1 plus a
// single-flow model: one 36-item package, 10 ticks of processing.
func twoProc() (*psdf.Model, *platform.Platform) {
	m := psdf.NewModel("two")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 10})
	p := platform.New("one-seg", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0, 1)
	return m, p
}

// TestRunMemoryIndependentOfPackageCount pins O(processes + flows)
// machine memory: the firing gate of each emission is computed when it
// fires, so a fresh run of two pipelined flows of 10⁶ one-item packages
// allocates no per-package storage.
func TestRunMemoryIndependentOfPackageCount(t *testing.T) {
	const items = 1_000_000
	m := psdf.NewModel("wide")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: items, Order: 1, Ticks: 1})
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: items, Order: 1, Ticks: 1})
	p := platform.New("one-seg", 100*platform.MHz, 1)
	p.AddSegment(100*platform.MHz, 0, 1, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := Run(m, p, Config{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Process(2).RecvPackages; got != items {
		t.Fatalf("P2 received %d packages, want %d", got, items)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("run allocated %d bytes, want < 1 MiB", alloc)
	}
}

func TestIntraSegmentTiming(t *testing.T) {
	m, p := twoProc()
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 100 MHz -> 10000 ps ticks. Compute: 10 ticks = 100000 ps.
	// Transfer: 36 ticks = 360000 ps. Delivery at 460000 ps.
	p0 := r.Process(0)
	if p0 == nil || p0.StartPs != 0 {
		t.Fatalf("P0 stats = %+v", p0)
	}
	if got := p0.EndPs; got != 460000 {
		t.Errorf("P0 end = %v, want 460000ps", got)
	}
	p1 := r.Process(1)
	if p1.RecvPackages != 1 || p1.LastReceivePs != 460000 {
		t.Errorf("P1 stats = %+v", p1)
	}
	sa := r.SA(1)
	if sa.TCT != 46 {
		t.Errorf("SA1 TCT = %d, want 46", sa.TCT)
	}
	if sa.IntraRequests != 1 || sa.InterRequests != 0 {
		t.Errorf("SA1 requests = %d/%d", sa.IntraRequests, sa.InterRequests)
	}
	if r.CA.InterRequests != 0 {
		t.Errorf("CA requests = %d", r.CA.InterRequests)
	}
	// Execution time: the CA (same 100 MHz here) counts until the end
	// plus the default detection latency.
	wantCA := int64(46) + DefaultDetectTicks
	if r.CA.TCT != wantCA {
		t.Errorf("CA TCT = %d, want %d", r.CA.TCT, wantCA)
	}
	if r.ExecutionTimePs != engine.Time(wantCA*10000) {
		t.Errorf("execution time = %v", r.ExecutionTimePs)
	}
}

func TestHeaderTicksExtendTransfers(t *testing.T) {
	m, p := twoProc()
	p.HeaderTicks = 4
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Process(0).EndPs; got != 500000 {
		t.Errorf("P0 end with 4 header ticks = %v, want 500000ps", got)
	}
}

func TestComputeTicksScaleWithNominal(t *testing.T) {
	m, p := twoProc()
	m.SetNominalPackageSize(36)
	p.PackageSize = 18 // two 18-item packages; 5 compute ticks each
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Per package: 5 ticks compute + 18 ticks transfer = 23 ticks.
	// Two packages back to back: 46 ticks = 460000 ps, same total as
	// one 36-item package (work is a property of the data).
	if got := r.Process(0).EndPs; got != 460000 {
		t.Errorf("P0 end with s=18 and nominal 36 = %v, want 460000ps", got)
	}
	if got := r.Process(1).RecvPackages; got != 2 {
		t.Errorf("P1 received %d packages, want 2", got)
	}
}

func TestWithoutNominalComputeIsPerPackage(t *testing.T) {
	m, p := twoProc() // nominal unset
	p.PackageSize = 18
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Per package: 10 ticks compute + 18 transfer = 28; two packages
	// = 56 ticks.
	if got := r.Process(0).EndPs; got != 560000 {
		t.Errorf("P0 end = %v, want 560000ps", got)
	}
}

func interModel() (*psdf.Model, *platform.Platform) {
	m := psdf.NewModel("inter")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 72, Order: 1, Ticks: 100})
	p := platform.New("two-seg", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0)
	p.AddSegment(100*platform.MHz, 1)
	return m, p
}

func TestInterSegmentCounters(t *testing.T) {
	m, p := interModel()
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bu := r.BU("BU12")
	if bu == nil {
		t.Fatal("no BU12 stats")
	}
	if bu.InPackages != 2 || bu.OutPackages != 2 {
		t.Errorf("BU12 in/out = %d/%d, want 2/2", bu.InPackages, bu.OutPackages)
	}
	if bu.RecvFromLeft != 2 || bu.SentToRight != 2 || bu.RecvFromRight != 0 || bu.SentToLeft != 0 {
		t.Errorf("BU12 direction counters = %+v", bu)
	}
	if bu.LoadTicks != 72 || bu.UnloadTicks != 72 {
		t.Errorf("BU12 load/unload = %d/%d, want 72/72 (UP = 2s per package)", bu.LoadTicks, bu.UnloadTicks)
	}
	if bu.TCT < 144 {
		t.Errorf("BU12 TCT = %d, want >= UP 144", bu.TCT)
	}
	if r.SA(1).InterRequests != 2 || r.SA(1).IntraRequests != 0 {
		t.Errorf("SA1 requests = %+v", r.SA(1))
	}
	// The receiving SA handles the two BU deliveries as intra work.
	if r.SA(2).IntraRequests != 2 {
		t.Errorf("SA2 intra = %d, want 2", r.SA(2).IntraRequests)
	}
	if r.CA.InterRequests != 2 {
		t.Errorf("CA requests = %d, want 2", r.CA.InterRequests)
	}
	if r.Segments[0].ToRight != 2 || r.Segments[0].ToLeft != 0 {
		t.Errorf("segment 1 direction counters = %+v", r.Segments[0])
	}
	if r.Process(1).RecvPackages != 2 {
		t.Errorf("P1 received %d", r.Process(1).RecvPackages)
	}
}

func TestLeftwardTransfer(t *testing.T) {
	m := psdf.NewModel("left")
	m.AddFlow(psdf.Flow{Source: 1, Target: 0, Items: 36, Order: 1, Ticks: 5})
	p := platform.New("two-seg", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0)
	p.AddSegment(100*platform.MHz, 1)
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bu := r.BU("BU12")
	if bu.RecvFromRight != 1 || bu.SentToLeft != 1 || bu.RecvFromLeft != 0 || bu.SentToRight != 0 {
		t.Errorf("leftward counters = %+v", bu)
	}
	if r.Segments[1].ToLeft != 1 {
		t.Errorf("segment 2 toLeft = %d", r.Segments[1].ToLeft)
	}
}

func TestMultiHopTransit(t *testing.T) {
	// P0 (segment 1) sends one package through the transit segment 2
	// to P2 (segment 3); P1 merely occupies segment 2 with an earlier
	// local-input flow so the platform mapping is complete.
	m := psdf.NewModel("transit")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 0, Target: 2, Items: 36, Order: 2, Ticks: 5})
	p := platform.New("three-seg", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0)
	p.AddSegment(100*platform.MHz, 1)
	p.AddSegment(100*platform.MHz, 2)
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bu12, bu23 := r.BU("BU12"), r.BU("BU23")
	// Both packages cross BU12; only the second reaches BU23.
	if bu12.InPackages != 2 || bu12.OutPackages != 2 {
		t.Errorf("BU12 = %+v", bu12)
	}
	if bu23.InPackages != 1 || bu23.OutPackages != 1 || bu23.RecvFromLeft != 1 || bu23.SentToRight != 1 {
		t.Errorf("BU23 = %+v", bu23)
	}
	// The transit segment forwards but originates nothing.
	if r.Segments[1].ToLeft != 0 || r.Segments[1].ToRight != 0 {
		t.Errorf("transit segment counters = %+v", r.Segments[1])
	}
	if r.Segments[0].ToRight != 2 {
		t.Errorf("source segment counters = %+v", r.Segments[0])
	}
	// The middle SA handled one delivery and one forward; the last SA
	// one delivery.
	if r.SA(2).IntraRequests != 2 || r.SA(3).IntraRequests != 1 {
		t.Errorf("forward requests: SA2=%d SA3=%d", r.SA(2).IntraRequests, r.SA(3).IntraRequests)
	}
	if r.Process(2).RecvPackages != 1 {
		t.Error("P2 never got the package")
	}
}

func TestCAHopTicksDelayInterTransfers(t *testing.T) {
	m := psdf.NewModel("hops")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 5})
	build := func(hop int) *platform.Platform {
		p := platform.New("two-seg", 100*platform.MHz, 36)
		p.CAHopTicks = hop
		p.AddSegment(100*platform.MHz, 0)
		p.AddSegment(100*platform.MHz, 1)
		return p
	}
	fast, err := Run(m, build(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(m, build(50), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if slow.ExecutionTimePs <= fast.ExecutionTimePs {
		t.Errorf("CAHopTicks had no effect: %v vs %v", slow.ExecutionTimePs, fast.ExecutionTimePs)
	}
}

func TestStageBarrierSerializesOrders(t *testing.T) {
	// Two flows with distinct orders from independent processes: the
	// second may not start before the first completes.
	m := psdf.NewModel("barrier")
	m.AddFlow(psdf.Flow{Source: 0, Target: 2, Items: 36, Order: 1, Ticks: 50})
	m.AddFlow(psdf.Flow{Source: 1, Target: 3, Items: 36, Order: 2, Ticks: 50})
	p := platform.New("one-seg", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0, 1, 2, 3)
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Process(1).StartPs < r.Process(2).LastReceivePs {
		t.Errorf("order-2 flow started at %v before order-1 delivery at %v",
			r.Process(1).StartPs, r.Process(2).LastReceivePs)
	}
}

func TestSameOrderFlowsOverlap(t *testing.T) {
	// Two flows sharing one order from different segments run
	// concurrently: total time must be far below the serial sum.
	m := psdf.NewModel("concurrent")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 360, Order: 1, Ticks: 100})
	m.AddFlow(psdf.Flow{Source: 2, Target: 3, Items: 360, Order: 1, Ticks: 100})
	p := platform.New("two-seg", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0, 1)
	p.AddSegment(100*platform.MHz, 2, 3)
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// One flow alone: 10 packages x (100 + 36) ticks = 1360 ticks.
	// Serial would be ~2720; concurrent should stay near 1360.
	if got := r.CA.TCT; got > 1600 {
		t.Errorf("same-order flows did not overlap: CA TCT = %d", got)
	}
}

func TestPipelinedGatingWithinStage(t *testing.T) {
	// P0 -> P1 -> P2 share one ordering number: P1 forwards packages
	// as they arrive (packet-SDF pipelining), so P1 starts before P0
	// finishes.
	m := psdf.NewModel("pipe")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 360, Order: 1, Ticks: 100})
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 360, Order: 1, Ticks: 10})
	p := platform.New("one-seg", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0, 1, 2)
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Process(1).StartPs >= r.Process(0).EndPs {
		t.Errorf("P1 did not pipeline: started %v, P0 ended %v", r.Process(1).StartPs, r.Process(0).EndPs)
	}
	if r.Process(2).RecvPackages != 10 {
		t.Errorf("P2 received %d packages", r.Process(2).RecvPackages)
	}
}

func TestSystemOutputFlow(t *testing.T) {
	m := psdf.NewModel("sysout")
	m.AddFlow(psdf.Flow{Source: 0, Target: psdf.SystemOutput, Items: 72, Order: 1, Ticks: 10})
	p := platform.New("one-seg", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0)
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Process(0).SentPackages != 2 {
		t.Errorf("P0 sent %d", r.Process(0).SentPackages)
	}
	if r.TotalPackagesSent() != 2 {
		t.Errorf("total sent = %d", r.TotalPackagesSent())
	}
}

func TestPartialFinalPackage(t *testing.T) {
	m := psdf.NewModel("ragged")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 40, Order: 1, Ticks: 0})
	p := platform.New("two-seg", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0)
	p.AddSegment(100*platform.MHz, 1)
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bu := r.BU("BU12")
	if bu.InPackages != 2 {
		t.Fatalf("packages = %d, want 2", bu.InPackages)
	}
	// 36 + 4 items loaded and unloaded.
	if bu.LoadTicks != 40 || bu.UnloadTicks != 40 {
		t.Errorf("partial package ticks = %d/%d, want 40/40", bu.LoadTicks, bu.UnloadTicks)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// P1 and P2 feed each other within one ordering number: the model
	// passes static validation (both are reachable from P0 and no
	// flow precedes its source's earliest input) yet neither can fire
	// first at run time.
	m := psdf.NewModel("cycle")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 36, Order: 2, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 2, Target: 1, Items: 36, Order: 2, Ticks: 5})
	p := platform.New("one-seg", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0, 1, 2)
	_, err := Run(m, p, Config{})
	if err == nil {
		t.Fatal("deadlocked model completed")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error %q does not mention deadlock", err)
	}
}

func TestRunValidates(t *testing.T) {
	m, p := twoProc()
	bad := psdf.NewModel("bad")
	if _, err := Run(bad, p, Config{}); err == nil {
		t.Error("empty model accepted")
	}
	if _, err := Run(m, platform.New("empty", 100*platform.MHz, 36), Config{}); err == nil {
		t.Error("empty platform accepted")
	}
	partial := platform.New("partial", 100*platform.MHz, 36)
	partial.AddSegment(100*platform.MHz, 0)
	if _, err := Run(m, partial, Config{}); err == nil {
		t.Error("unmapped process accepted")
	}
	roles := platform.New("roles", 100*platform.MHz, 36)
	s := roles.AddSegment(100 * platform.MHz)
	s.FUs = append(s.FUs, platform.FU{Process: 0, Kind: platform.SlaveOnly}, platform.FU{Process: 1})
	if _, err := Run(m, roles, Config{}); err == nil {
		t.Error("slave-only master accepted")
	}
}

func TestDeterminism(t *testing.T) {
	m := psdf.NewModel("det")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 144, Order: 1, Ticks: 30})
	m.AddFlow(psdf.Flow{Source: 0, Target: 2, Items: 144, Order: 1, Ticks: 30})
	m.AddFlow(psdf.Flow{Source: 1, Target: 3, Items: 72, Order: 2, Ticks: 10})
	m.AddFlow(psdf.Flow{Source: 2, Target: 3, Items: 72, Order: 2, Ticks: 10})
	p := platform.New("det", 111*platform.MHz, 36)
	p.AddSegment(91*platform.MHz, 0, 1)
	p.AddSegment(98*platform.MHz, 2, 3)
	a, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs diverged:\n%v\nvs\n%v", a, b)
	}
}

func TestTraceRecording(t *testing.T) {
	m, p := twoProc()
	tr := &trace.Trace{}
	if _, err := Run(m, p, Config{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Intervals) == 0 {
		t.Fatal("no intervals recorded")
	}
	sawCompute, sawTransfer := false, false
	for _, iv := range tr.Intervals {
		switch iv.Kind {
		case trace.Compute:
			sawCompute = true
		case trace.Transfer:
			sawTransfer = true
		}
		if iv.End < iv.Start {
			t.Errorf("interval ends before it starts: %+v", iv)
		}
	}
	if !sawCompute || !sawTransfer {
		t.Errorf("missing interval kinds: compute=%v transfer=%v", sawCompute, sawTransfer)
	}
	foundMark := false
	for _, mk := range tr.Marks {
		if mk.Element == "P1" && strings.Contains(mk.Label, "received last package") {
			foundMark = true
		}
	}
	if !foundMark {
		t.Error("sink mark not recorded")
	}
}

func TestOverheadsSlowDown(t *testing.T) {
	m, p := interModel()
	base, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ov := range []Overheads{
		{GrantTicks: 5},
		{SyncTicks: 3},
		{CASetTicks: 4},
		{CASetTicks: 1, CAResetTicks: 9},
		{GrantTicks: 5, SyncTicks: 2, CASetTicks: 2, CAResetTicks: 2},
	} {
		r, err := Run(m, p, Config{Overheads: ov})
		if err != nil {
			t.Fatalf("%+v: %v", ov, err)
		}
		if r.ExecutionTimePs <= base.ExecutionTimePs {
			t.Errorf("overheads %+v did not slow the run: %v vs %v", ov, r.ExecutionTimePs, base.ExecutionTimePs)
		}
		if !r.Refined {
			t.Errorf("overheads %+v not flagged as refined", ov)
		}
	}
	if base.Refined {
		t.Error("zero overheads flagged as refined")
	}
}

func TestReportString(t *testing.T) {
	m, p := interModel()
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{
		"P0, Start Time =",
		"P1 received last package at",
		"CA TCT =",
		"Execution time =",
		"BU12:",
		"Packets transfered to Left",
		"SA1:",
		"SA2:",
		"Total intra-segment requests",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestStepLimitGuards(t *testing.T) {
	m, p := twoProc()
	if _, err := Run(m, p, Config{StepLimit: 1}); err == nil {
		t.Error("step limit 1 did not abort")
	}
}

func TestReportAccessorsReturnNilForUnknown(t *testing.T) {
	m, p := twoProc()
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.SA(9) != nil || r.BU("BU99") != nil || r.Process(42) != nil {
		t.Error("unknown lookups must return nil")
	}
}

func TestConfigValidation(t *testing.T) {
	m, p := twoProc()
	bad := []Config{
		{Overheads: Overheads{GrantTicks: -1}},
		{Overheads: Overheads{SyncTicks: -2}},
		{Overheads: Overheads{CASetTicks: -1}},
		{Overheads: Overheads{CAResetTicks: -3}},
		{DetectTicks: -1},
		{Policy: Policy(99)},
		{DetectTicks: MaxTicks + 1},
		{DetectTicks: math.MaxInt64},
		{Overheads: Overheads{GrantTicks: MaxTicks + 1}},
		{Overheads: Overheads{SyncTicks: MaxTicks + 1}},
		{Overheads: Overheads{CASetTicks: MaxTicks + 1}},
		{Overheads: Overheads{CAResetTicks: math.MaxInt}},
	}
	for i, cfg := range bad {
		if _, err := Run(m, p, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestTicksAtLimit runs every tick field at MaxTicks on 1 Hz clocks,
// the slowest a scheme can declare: the CA's execution time is exactly
// its tick count times the period, with no wrap.
func TestTicksAtLimit(t *testing.T) {
	m := psdf.NewModel("two")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 10})
	p := platform.New("slow", 1, 36)
	p.AddSegment(1, 0, 1)
	r, err := Run(m, p, Config{DetectTicks: MaxTicks, Overheads: Overheads{
		GrantTicks: MaxTicks, SyncTicks: MaxTicks, CASetTicks: MaxTicks, CAResetTicks: MaxTicks}})
	if err != nil {
		t.Fatal(err)
	}
	if r.CA.TCT <= MaxTicks || int64(r.CA.ExecTimePs) != r.CA.TCT*1e12 || r.ExecutionTimePs < r.CA.ExecTimePs {
		t.Errorf("CA TCT %d, exec %d ps, total %d ps", r.CA.TCT, r.CA.ExecTimePs, r.ExecutionTimePs)
	}
}

func TestStageStats(t *testing.T) {
	m := psdf.NewModel("stages")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 72, Order: 1, Ticks: 10})
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 36, Order: 3, Ticks: 10})
	p := platform.New("one", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0, 1, 2)
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stages) != 2 {
		t.Fatalf("stages = %d", len(r.Stages))
	}
	s0, s1 := r.Stages[0], r.Stages[1]
	if s0.Order != 1 || s0.Packages != 2 || s1.Order != 3 || s1.Packages != 1 {
		t.Errorf("stage shapes: %+v %+v", s0, s1)
	}
	if s0.StartPs != 0 {
		t.Errorf("first stage starts at %v", s0.StartPs)
	}
	// Stages are contiguous: the next stage activates exactly when the
	// previous drains.
	if s1.StartPs != s0.EndPs {
		t.Errorf("stage 2 start %v != stage 1 end %v", s1.StartPs, s0.EndPs)
	}
	if s1.EndPs != r.EndPs {
		t.Errorf("last stage end %v != run end %v", s1.EndPs, r.EndPs)
	}
}

// countingObserver tallies emulation events for the Observer tests.
type countingObserver struct {
	stages, grants, deliveries int
	lastAt                     int64
	ordered                    bool
}

func newCountingObserver() *countingObserver { return &countingObserver{ordered: true} }

func (o *countingObserver) see(at int64) {
	if at < o.lastAt {
		o.ordered = false
	}
	o.lastAt = at
}
func (o *countingObserver) StageStarted(order int, at int64)             { o.stages++; o.see(at) }
func (o *countingObserver) TransferGranted(segment int, at int64)        { o.grants++; o.see(at) }
func (o *countingObserver) PackageDelivered(src, dst, pkg int, at int64) { o.deliveries++; o.see(at) }

func TestObserverEvents(t *testing.T) {
	m := psdf.NewModel("obs")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 72, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 36, Order: 2, Ticks: 5})
	p := platform.New("two", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0, 1)
	p.AddSegment(100*platform.MHz, 2)
	obs := newCountingObserver()
	r, err := Run(m, p, Config{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if obs.stages != 2 {
		t.Errorf("stage events = %d, want 2", obs.stages)
	}
	if obs.deliveries != 3 {
		t.Errorf("delivery events = %d, want 3", obs.deliveries)
	}
	// Grants: 2 intra + 1 fill + 1 unload = 4.
	if obs.grants != 4 {
		t.Errorf("grant events = %d, want 4", obs.grants)
	}
	if !obs.ordered {
		t.Error("observer events not time-ordered")
	}
	// The observer must not perturb the run.
	plain, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != r.String() {
		t.Error("observer changed the emulation result")
	}
}

func TestReportJSON(t *testing.T) {
	m, p := interModel()
	r, err := Run(m, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version         int   `json:"version"`
		ExecutionTimePs int64 `json:"execution_time_ps"`
		CA              struct {
			TCT int64 `json:"tct"`
		} `json:"ca"`
		SAs       []struct{ Segment int } `json:"sas"`
		BUs       []struct{ Name string } `json:"bus"`
		Processes []struct {
			Process string `json:"process"`
		} `json:"processes"`
		Stages []struct{ Packages int } `json:"stages"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Version != 1 || doc.ExecutionTimePs != int64(r.ExecutionTimePs) || doc.CA.TCT != r.CA.TCT {
		t.Errorf("header mismatch: %+v", doc)
	}
	if len(doc.SAs) != 2 || len(doc.BUs) != 1 || len(doc.Processes) != 2 || len(doc.Stages) != 1 {
		t.Errorf("shape mismatch: %+v", doc)
	}
	if doc.Processes[0].Process != "P0" {
		t.Errorf("process naming: %+v", doc.Processes)
	}
}
