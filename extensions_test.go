package segbus_test

import (
	"strings"
	"testing"

	"segbus"
)

func TestPublicGenerateArbiters(t *testing.T) {
	m := segbus.MP3Decoder()
	p := segbus.MP3Platform3(36)
	prog, err := segbus.GenerateArbiters(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.SAs) != 3 || len(prog.CA) != 33 {
		t.Errorf("program shape: %d SAs, %d CA slots", len(prog.SAs), len(prog.CA))
	}
	if !strings.Contains(prog.Listing(), "SA1:") {
		t.Error("listing broken")
	}
	if !strings.Contains(prog.VHDL(), "entity ca_scheduler is") {
		t.Error("VHDL broken")
	}
}

func TestPublicEstimateEnergy(t *testing.T) {
	m := segbus.MP3Decoder()
	p := segbus.MP3Platform3(36)
	est, err := segbus.Estimate(m, p, segbus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	en, err := segbus.EstimateEnergy(m, p, est.Report, segbus.EnergyParams{})
	if err != nil {
		t.Fatal(err)
	}
	if en.TotalPJ <= 0 {
		t.Error("no energy estimate")
	}
}

// TestPublicEstimateEnergyCrossedPair: the MP3 decoder's report priced
// on a platform that hosts only the JPEG encoder's processes is an
// error, not a panic.
func TestPublicEstimateEnergyCrossedPair(t *testing.T) {
	m := segbus.MP3Decoder()
	est, err := segbus.Estimate(m, segbus.MP3Platform3(36), segbus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := segbus.EstimateEnergy(m, segbus.JPEGPlatform1(36), est.Report, segbus.EnergyParams{}); err == nil {
		t.Error("EstimateEnergy accepted a crossed (model, platform) pair")
	}
}

func TestPublicMP3Reference(t *testing.T) {
	m := segbus.MP3Decoder()
	if m.NumProcesses() != 15 || m.NumFlows() != 20 {
		t.Errorf("MP3 model shape %d/%d", m.NumProcesses(), m.NumFlows())
	}
	roles := segbus.MP3DecoderRoles()
	if roles[0] == "" || roles[14] == "" {
		t.Error("roles incomplete")
	}
	for _, p := range []*segbus.Platform{
		segbus.MP3Platform1(36), segbus.MP3Platform2(36),
		segbus.MP3Platform3(36), segbus.MP3Platform3MovedP9(36),
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestPublicGenerators(t *testing.T) {
	if m := segbus.Pipeline(4, 72, 10); m.NumFlows() != 3 {
		t.Error("Pipeline broken")
	}
	if m := segbus.ForkJoin(3, 36, 10); m.NumProcesses() != 5 {
		t.Error("ForkJoin broken")
	}
}

func TestPublicFrequencies(t *testing.T) {
	if segbus.MHz*1000 != segbus.GHz || segbus.KHz*1000 != segbus.MHz {
		t.Error("frequency unit relations broken")
	}
	if (91 * segbus.MHz).PeriodPs() != 10989 {
		t.Error("period conversion broken")
	}
}

func TestPublicFUKinds(t *testing.T) {
	if segbus.MasterSlave == segbus.MasterOnly || segbus.MasterOnly == segbus.SlaveOnly {
		t.Error("kind constants collide")
	}
	p := segbus.NewPlatform("k", 100*segbus.MHz, 36)
	s := p.AddSegment(90 * segbus.MHz)
	s.FUs = append(s.FUs, segbus.FU{Process: 0, Kind: segbus.MasterOnly})
	if !p.MasterCapable(0) || p.SlaveCapable(0) {
		t.Error("kind plumbing broken")
	}
}

func TestPublicSystemOutput(t *testing.T) {
	m := segbus.NewModel("out")
	m.AddFlow(segbus.Flow{Source: 0, Target: segbus.SystemOutput, Items: 36, Order: 1, Ticks: 1})
	p := segbus.NewPlatform("one", 100*segbus.MHz, 36)
	p.AddSegment(100*segbus.MHz, 0)
	est, err := segbus.Estimate(m, p, segbus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Report.Process(0).SentPackages != 1 {
		t.Error("system-output flow not sent")
	}
}

func TestPublicPolicyOption(t *testing.T) {
	m := segbus.MP3Decoder()
	p := segbus.MP3Platform3(36)
	for _, pol := range []segbus.Policy{segbus.PolicyBUFirst, segbus.PolicyFIFO, segbus.PolicyFixedPriority} {
		if _, err := segbus.Estimate(m, p, segbus.Options{Policy: pol}); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
	}
}

func TestPublicJPEGReference(t *testing.T) {
	m := segbus.JPEGEncoder()
	if m.NumProcesses() != 11 {
		t.Errorf("JPEG model shape: %d processes", m.NumProcesses())
	}
	if segbus.JPEGEncoderRoles()[10] == "" {
		t.Error("roles incomplete")
	}
	for _, p := range []*segbus.Platform{
		segbus.JPEGPlatform1(segbus.JPEGPackageSize),
		segbus.JPEGPlatform3(segbus.JPEGPackageSize),
	} {
		est, err := segbus.Estimate(m, p, segbus.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if est.ExecutionTimePs() <= 0 {
			t.Errorf("%s: no execution time", p.Name)
		}
	}
}

func TestPublicRepeat(t *testing.T) {
	m, err := segbus.Repeat(segbus.MP3Decoder(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFlows() != 40 {
		t.Errorf("flows = %d, want 40", m.NumFlows())
	}
	if _, err := segbus.Estimate(m, segbus.MP3Platform3(36), segbus.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSweepAndCongestion(t *testing.T) {
	m := segbus.MP3Decoder()
	base := segbus.MP3Platform3(36)
	c := segbus.SweepPackageSizes(m, base, []int{18, 36})
	if len(c.Points) != 2 || c.Points[0].Err != nil {
		t.Fatalf("curve = %+v", c)
	}
	if c.Points[0].ExecPs <= c.Points[1].ExecPs {
		t.Error("s=18 should run longer than s=36")
	}
	if _, err := segbus.SweepSegmentClock(m, base, 2, []segbus.Hz{90 * segbus.MHz}); err != nil {
		t.Fatal(err)
	}
	if len(segbus.SweepHeaderTicks(m, base, []int{0, 10}).Points) != 2 {
		t.Error("header sweep wrong")
	}
	if len(segbus.SweepCAHopTicks(m, base, []int{0, 10}).Points) != 2 {
		t.Error("hop sweep wrong")
	}

	est, err := segbus.Estimate(m, base, segbus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := segbus.Congestions(est.Report)
	if len(cs) != 2 {
		t.Fatalf("congestions = %d", len(cs))
	}
	if !strings.Contains(segbus.CongestionReport(est.Report), "verdict") {
		t.Error("congestion report wrong")
	}
}

func TestPublicStageTable(t *testing.T) {
	est, err := segbus.Estimate(segbus.MP3Decoder(), segbus.MP3Platform3(36), segbus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Report.Stages) != 16 {
		t.Errorf("stages = %d", len(est.Report.Stages))
	}
	if !strings.Contains(segbus.StageTable(est.Report), "span (us)") {
		t.Error("stage table broken")
	}
}

// probe implements segbus.Observer.
type probe struct{ deliveries int }

func (p *probe) StageStarted(order int, at int64)             {}
func (p *probe) TransferGranted(segment int, at int64)        {}
func (p *probe) PackageDelivered(src, dst, pkg int, at int64) { p.deliveries++ }

func TestPublicObserver(t *testing.T) {
	var ob probe
	if _, err := segbus.Estimate(segbus.MP3Decoder(), segbus.MP3Platform3(36), segbus.Options{Observer: &ob}); err != nil {
		t.Fatal(err)
	}
	if ob.deliveries != 224 {
		t.Errorf("observed %d deliveries, want 224", ob.deliveries)
	}
}
