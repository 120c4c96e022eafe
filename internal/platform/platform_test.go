package platform

import (
	"strings"
	"testing"
	"testing/quick"

	"segbus/internal/psdf"
)

func TestHzString(t *testing.T) {
	cases := []struct {
		f    Hz
		want string
	}{
		{91 * MHz, "91.00MHz"},
		{111 * MHz, "111.00MHz"},
		{2 * GHz, "2.00GHz"},
		{500 * KHz, "500.00kHz"},
		{250, "250.00Hz"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("Hz(%v).String() = %q, want %q", float64(c.f), got, c.want)
		}
	}
}

func TestHzPeriodPs(t *testing.T) {
	cases := []struct {
		f    Hz
		want int64
	}{
		{91 * MHz, 10989},
		{98 * MHz, 10204},
		{89 * MHz, 11236},
		{111 * MHz, 9009},
		{1 * GHz, 1000},
	}
	for _, c := range cases {
		if got := c.f.PeriodPs(); got != c.want {
			t.Errorf("Hz(%v).PeriodPs() = %d, want %d", float64(c.f), got, c.want)
		}
	}
}

func TestHzPeriodPsPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PeriodPs() on zero frequency did not panic")
		}
	}()
	Hz(0).PeriodPs()
}

func buildPlatform() *Platform {
	p := New("test", 111*MHz, 36)
	p.AddSegment(91*MHz, 0, 1, 2)
	p.AddSegment(98*MHz, 3, 4)
	p.AddSegment(89*MHz, 5)
	return p
}

func TestPlatformStructure(t *testing.T) {
	p := buildPlatform()
	if got := p.NumSegments(); got != 3 {
		t.Fatalf("NumSegments() = %d", got)
	}
	if s := p.Segment(2); s == nil || s.Index != 2 || len(s.FUs) != 2 {
		t.Errorf("Segment(2) = %+v", s)
	}
	if p.Segment(0) != nil || p.Segment(4) != nil {
		t.Error("Segment() out of range should return nil")
	}
	bus := p.BUs()
	if len(bus) != 2 {
		t.Fatalf("BUs() = %v, want 2 units", bus)
	}
	if bus[0].Name() != "BU12" || bus[1].Name() != "BU23" {
		t.Errorf("BUs() = %v, want [BU12 BU23]", bus)
	}
	if got := len(New("empty", MHz, 1).BUs()); got != 0 {
		t.Errorf("single/zero-segment platform has %d BUs, want 0", got)
	}
}

func TestSegmentNames(t *testing.T) {
	p := buildPlatform()
	s := p.Segment(2)
	if s.Name() != "Segment 2" || s.SAName() != "SA2" {
		t.Errorf("names = %q, %q", s.Name(), s.SAName())
	}
}

func TestSegmentOf(t *testing.T) {
	p := buildPlatform()
	cases := map[psdf.ProcessID]int{0: 1, 2: 1, 3: 2, 5: 3}
	for proc, want := range cases {
		if got := p.SegmentOf(proc); got != want {
			t.Errorf("SegmentOf(%v) = %d, want %d", proc, got, want)
		}
	}
	if got := p.SegmentOf(99); got != 0 {
		t.Errorf("SegmentOf(unhosted) = %d, want 0", got)
	}
}

func TestProcesses(t *testing.T) {
	p := buildPlatform()
	procs := p.Processes()
	if len(procs) != 6 {
		t.Fatalf("Processes() = %v", procs)
	}
	for i := 1; i < len(procs); i++ {
		if procs[i-1] >= procs[i] {
			t.Fatalf("Processes() not ascending: %v", procs)
		}
	}
}

func TestRoute(t *testing.T) {
	p := buildPlatform()
	bus, right := p.Route(1, 3)
	if !right || len(bus) != 2 || bus[0].Name() != "BU12" || bus[1].Name() != "BU23" {
		t.Errorf("Route(1,3) = %v rightward=%v", bus, right)
	}
	bus, right = p.Route(3, 1)
	if right || len(bus) != 2 || bus[0].Name() != "BU23" || bus[1].Name() != "BU12" {
		t.Errorf("Route(3,1) = %v rightward=%v", bus, right)
	}
	bus, _ = p.Route(2, 2)
	if bus != nil {
		t.Errorf("Route(2,2) = %v, want nil", bus)
	}
	if got := p.Hops(1, 3); got != 2 {
		t.Errorf("Hops(1,3) = %d", got)
	}
	if got := p.Hops(3, 1); got != 2 {
		t.Errorf("Hops(3,1) = %d", got)
	}
	if got := p.Hops(2, 2); got != 0 {
		t.Errorf("Hops(2,2) = %d", got)
	}
}

func TestFlowSegments(t *testing.T) {
	p := buildPlatform()
	for _, c := range []struct {
		src, tgt         psdf.ProcessID
		wantSrc, wantDst int
		wantOK           bool
	}{
		{0, 1, 1, 1, true},
		{0, 5, 1, 3, true},
		{5, 3, 3, 2, true},
		{4, psdf.SystemOutput, 2, 2, true},
		{9, 1, 0, 1, false},
		{0, 9, 1, 0, false},
	} {
		f := psdf.Flow{Source: c.src, Target: c.tgt, Items: 1}
		src, dst, ok := p.FlowSegments(f)
		if src != c.wantSrc || dst != c.wantDst || ok != c.wantOK {
			t.Errorf("FlowSegments(%v) = %d, %d, %v; want %d, %d, %v", f, src, dst, ok, c.wantSrc, c.wantDst, c.wantOK)
		}
	}
	if bu := (BU{Left: 1, Right: 2}); bu.Entered(true) != 2 || bu.Entered(false) != 1 {
		t.Errorf("BU12 enters %d rightward, %d leftward; want 2, 1", bu.Entered(true), bu.Entered(false))
	}
}

func TestRoutePanicsOutOfRange(t *testing.T) {
	p := buildPlatform()
	defer func() {
		if recover() == nil {
			t.Error("Route(0, 1) did not panic")
		}
	}()
	p.Route(0, 1)
}

func TestRouteLengthMatchesHops(t *testing.T) {
	p := New("big", 100*MHz, 8)
	for i := 0; i < 6; i++ {
		p.AddSegment(90*MHz, psdf.ProcessID(i))
	}
	f := func(a, b uint8) bool {
		src := int(a)%6 + 1
		dst := int(b)%6 + 1
		bus, right := p.Route(src, dst)
		if len(bus) != p.Hops(src, dst) {
			return false
		}
		if src != dst && right != (src < dst) {
			return false
		}
		// Crossing order must be contiguous.
		for i := 1; i < len(bus); i++ {
			if right && bus[i].Left != bus[i-1].Left+1 {
				return false
			}
			if !right && bus[i].Left != bus[i-1].Left-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoveProcess(t *testing.T) {
	p := buildPlatform()
	if err := p.MoveProcess(0, 3); err != nil {
		t.Fatal(err)
	}
	if got := p.SegmentOf(0); got != 3 {
		t.Errorf("after move, SegmentOf(0) = %d", got)
	}
	if got := len(p.Segment(1).FUs); got != 2 {
		t.Errorf("segment 1 has %d FUs after move, want 2", got)
	}
	// Moving to the current segment is a no-op.
	if err := p.MoveProcess(0, 3); err != nil {
		t.Errorf("no-op move failed: %v", err)
	}
	if err := p.MoveProcess(99, 1); err == nil {
		t.Error("moving an unhosted process succeeded")
	}
	if err := p.MoveProcess(0, 9); err == nil {
		t.Error("moving to a nonexistent segment succeeded")
	}
}

func TestMoveProcessPreservesKind(t *testing.T) {
	p := New("kinds", 100*MHz, 4)
	s1 := p.AddSegment(90 * MHz)
	s1.FUs = append(s1.FUs, FU{Process: 0, Kind: MasterOnly})
	p.AddSegment(95*MHz, 1)
	if err := p.MoveProcess(0, 2); err != nil {
		t.Fatal(err)
	}
	seg2 := p.Segment(2)
	for _, fu := range seg2.FUs {
		if fu.Process == 0 && fu.Kind != MasterOnly {
			t.Errorf("kind lost in move: %v", fu.Kind)
		}
	}
}

func TestPlatformString(t *testing.T) {
	p := buildPlatform()
	if got, want := p.String(), "0 1 2 || 3 4 || 5"; got != want {
		t.Errorf("String() = %q, want %q (Figure 9 style)", got, want)
	}
}

func TestClonePlatform(t *testing.T) {
	p := buildPlatform()
	p.HeaderTicks = 25
	p.CAHopTicks = 10
	c := p.Clone()
	if c.String() != p.String() || c.HeaderTicks != 25 || c.CAHopTicks != 10 || c.CAClock != p.CAClock {
		t.Fatal("Clone() lost data")
	}
	if err := c.MoveProcess(0, 2); err != nil {
		t.Fatal(err)
	}
	if p.SegmentOf(0) != 1 {
		t.Error("Clone() shares segment storage with the original")
	}
}

func TestFUKindString(t *testing.T) {
	if MasterSlave.String() != "master+slave" || MasterOnly.String() != "master" || SlaveOnly.String() != "slave" {
		t.Error("FUKind.String() mismatch")
	}
	if got := FUKind(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown kind renders %q", got)
	}
}
