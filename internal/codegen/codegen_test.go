package codegen

import (
	"strings"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

func TestGenerateMP3(t *testing.T) {
	m := apps.MP3Model()
	plat := apps.MP3Platform3(36)
	prog, err := Generate(sched.NewPair(m, plat))
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.SAs) != 3 {
		t.Fatalf("SAs = %d", len(prog.SAs))
	}
	// The CA schedule has one slot per inter-segment package: 33 (32
	// from segment 1 plus P4->P5 from segment 3).
	if len(prog.CA) != 33 {
		t.Errorf("CA slots = %d, want 33", len(prog.CA))
	}
	// Total grants across SAs: every package costs one grant at its
	// source plus one per border-unit hop.
	s, err := sched.Extract(m, 36)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := range s.Flows() {
		f := s.Flow(sched.FlowID(i))
		src, dst := plat.SegmentOf(f.Source), plat.SegmentOf(f.Target)
		want += s.Packages(sched.FlowID(i)) * (1 + plat.Hops(src, dst))
	}
	got := 0
	for _, sa := range prog.SAs {
		got += len(sa.Grants)
	}
	if got != want {
		t.Errorf("total grants = %d, want %d", got, want)
	}
}

func TestGrantsFollowStageOrder(t *testing.T) {
	prog, err := Generate(sched.NewPair(apps.MP3Model(), apps.MP3Platform3(36)))
	if err != nil {
		t.Fatal(err)
	}
	for _, sa := range prog.SAs {
		prev := -1
		for _, g := range sa.Grants {
			if g.Stage < prev {
				t.Fatalf("SA%d grants out of stage order", sa.Segment)
			}
			prev = g.Stage
		}
	}
	prev := -1
	for _, g := range prog.CA {
		if g.Stage < prev {
			t.Fatal("CA grants out of stage order")
		}
		prev = g.Stage
	}
}

func TestGenerateMultiHop(t *testing.T) {
	m := psdf.NewModel("hop")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 0, Target: 2, Items: 72, Order: 2, Ticks: 5})
	p := platform.New("three", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0)
	p.AddSegment(100*platform.MHz, 1)
	p.AddSegment(100*platform.MHz, 2)
	prog, err := Generate(sched.NewPair(m, p))
	if err != nil {
		t.Fatal(err)
	}
	// Segment 2's SA forwards the two transit packages (and delivers
	// one to P1).
	var sa2 *SAProgram
	for i := range prog.SAs {
		if prog.SAs[i].Segment == 2 {
			sa2 = &prog.SAs[i]
		}
	}
	forwards, delivers := 0, 0
	for _, g := range sa2.Grants {
		if g.Kind == GrantForward {
			if g.Deliver {
				delivers++
			} else {
				forwards++
				if g.ToBU != "BU23" {
					t.Errorf("forward into %q, want BU23", g.ToBU)
				}
			}
		}
	}
	if forwards != 2 || delivers != 1 {
		t.Errorf("segment 2: %d forwards, %d delivers; want 2/1", forwards, delivers)
	}
}

func TestGenerateValidates(t *testing.T) {
	if _, err := Generate(sched.NewPair(psdf.NewModel("bad"), apps.MP3Platform3(36))); err == nil {
		t.Error("invalid model accepted")
	}
	m := apps.MP3Model()
	p := platform.New("tiny", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0)
	if _, err := Generate(sched.NewPair(m, p)); err == nil {
		t.Error("incomplete mapping accepted")
	}
}

func TestListing(t *testing.T) {
	prog, err := Generate(sched.NewPair(apps.MP3Model(), apps.MP3Platform3(36)))
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Listing()
	for _, want := range []string{
		"CA: 33 inter-segment grants",
		"SA1:", "SA2:", "SA3:",
		"grant P0   intra -> P1 pkg 1",
		"fill BU12",
		"deliver to",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("listing missing %q", want)
		}
	}
}

func TestVHDL(t *testing.T) {
	prog, err := Generate(sched.NewPair(apps.MP3Model(), apps.MP3Platform3(36)))
	if err != nil {
		t.Fatal(err)
	}
	v := prog.VHDL()
	for _, want := range []string{
		"entity sa1_scheduler is",
		"entity sa2_scheduler is",
		"entity sa3_scheduler is",
		"entity ca_scheduler is",
		"constant SCHEDULE : rom_t := (",
		"GRANT_M0",
		"GRANT_BU12",
		"rising_edge(clk)",
		"sched_done",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("VHDL missing %q", want)
		}
	}
	// Balanced entity/architecture pairs: 4 entities, 4 architectures.
	if got := strings.Count(v, "end entity"); got != 4 {
		t.Errorf("entities = %d", got)
	}
	if got := strings.Count(v, "end architecture"); got != 4 {
		t.Errorf("architectures = %d", got)
	}
}

func TestVHDLNoInterSegment(t *testing.T) {
	m := psdf.NewModel("local")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 5})
	p := platform.New("one", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0, 1)
	prog, err := Generate(sched.NewPair(m, p))
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.CA) != 0 {
		t.Errorf("CA slots = %d", len(prog.CA))
	}
	v := prog.VHDL()
	if !strings.Contains(v, "constant SLOTS : natural := 0;") {
		t.Error("empty CA schedule not emitted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(sched.NewPair(apps.MP3Model(), apps.MP3Platform3(36)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(sched.NewPair(apps.MP3Model(), apps.MP3Platform3(36)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Listing() != b.Listing() || a.VHDL() != b.VHDL() {
		t.Error("codegen nondeterministic")
	}
}
