package m2t

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"segbus/internal/apps"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

func TestGeneratePSDFShape(t *testing.T) {
	m := apps.MP3Model()
	data, err := GeneratePSDF(m)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		`<?xml version="1.0" encoding="UTF-8"?>`,
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">`,
		`<xs:appinfo>nominalPackageSize=36</xs:appinfo>`,
		`<xs:complexType name="P0">`,
		// The paper's documented flow encoding for P0 -> P1.
		`<xs:element name="P1_576_1_250" type="Transfer"/>`,
		`<xs:complexType name="P14">`,
		`<xs:complexType name="Transfer">`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("PSDF XML missing %q", want)
		}
	}
}

func TestGeneratePSDFRejectsInvalidModel(t *testing.T) {
	if _, err := GeneratePSDF(psdf.NewModel("broken")); err == nil {
		t.Error("invalid model transformed")
	}
}

func TestGeneratePSMShape(t *testing.T) {
	p := apps.MP3Platform3(36)
	data, err := GeneratePSM(p)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		`<xs:element name="sbp" type="SBP"/>`,
		`<xs:complexType name="SBP">`,
		`<xs:element name="segment1" type="Segment1"/>`,
		`<xs:element name="segment3" type="Segment3"/>`,
		`<xs:element name="ca" type="CA"/>`,
		`<xs:element name="bu12" type="BU12"/>`,
		`<xs:element name="bu23" type="BU23"/>`,
		`<xs:complexType name="Segment1">`,
		`<xs:element name="buRight" type="BU12"/>`,
		`<xs:element name="buLeft" type="BU12"/>`,
		`<xs:element name="arbiter" type="SA1"/>`,
		`<xs:appinfo>caClockHz=111000000</xs:appinfo>`,
		`<xs:appinfo>clockHz=91000000</xs:appinfo>`,
		`<xs:appinfo>packageSize=36</xs:appinfo>`,
		`<xs:element name="master" type="Master"/>`,
		`<xs:element name="slave" type="Slave"/>`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("PSM XML missing %q", want)
		}
	}
	// The middle segment has both BU neighbours.
	seg2 := s[strings.Index(s, `<xs:complexType name="Segment2">`):]
	seg2 = seg2[:strings.Index(seg2, "</xs:complexType>")]
	if !strings.Contains(seg2, `name="buLeft" type="BU12"`) || !strings.Contains(seg2, `name="buRight" type="BU23"`) {
		t.Errorf("segment 2 misses a BU neighbour:\n%s", seg2)
	}
}

func TestGeneratePSMRejectsInvalidPlatform(t *testing.T) {
	if _, err := GeneratePSM(platform.New("empty", 100*platform.MHz, 36)); err == nil {
		t.Error("invalid platform transformed")
	}
}

func TestGeneratePSMFUKinds(t *testing.T) {
	p := platform.New("kinds", 100*platform.MHz, 36)
	s := p.AddSegment(90 * platform.MHz)
	s.FUs = append(s.FUs,
		platform.FU{Process: 0, Kind: platform.MasterOnly},
		platform.FU{Process: 1, Kind: platform.SlaveOnly},
	)
	data, err := GeneratePSM(p)
	if err != nil {
		t.Fatal(err)
	}
	str := string(data)
	p0 := section(str, `<xs:complexType name="P0">`)
	if !strings.Contains(p0, "master") || strings.Contains(p0, "slave") {
		t.Errorf("P0 master-only rendering wrong:\n%s", p0)
	}
	p1 := section(str, `<xs:complexType name="P1">`)
	if strings.Contains(p1, "master") || !strings.Contains(p1, "slave") {
		t.Errorf("P1 slave-only rendering wrong:\n%s", p1)
	}
}

func section(s, start string) string {
	i := strings.Index(s, start)
	if i < 0 {
		return ""
	}
	rest := s[i:]
	j := strings.Index(rest, "</xs:complexType>")
	if j < 0 {
		return rest
	}
	return rest[:j]
}

func TestXMLEscape(t *testing.T) {
	if got := xmlEscape(`a<b>&"c"'d'`); got != "a&lt;b&gt;&amp;&quot;c&quot;&apos;d&apos;" {
		t.Errorf("xmlEscape = %q", got)
	}
}

func TestTypeName(t *testing.T) {
	cases := map[string]string{
		"mp3-decoder": "Mp3Decoder",
		"my_app":      "MyApp",
		"simple":      "Simple",
		"":            "Application",
		"a b.c":       "ABC",
	}
	for in, want := range cases {
		if got := typeName(in); got != want {
			t.Errorf("typeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEngineeringSetTransform(t *testing.T) {
	dir := t.TempDir()
	m := apps.MP3Model()
	set := NewPSDFSet("mp3-psdf", m, dir)
	path, err := set.Transform()
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "mp3-psdf.xsd" {
		t.Errorf("path = %q", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "P1_576_1_250") {
		t.Error("written file lacks flow encoding")
	}

	pset := NewPSMSet("mp3-psm", apps.MP3Platform3(36), dir)
	if _, err := pset.Transform(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "mp3-psm.xsd")); err != nil {
		t.Errorf("PSM file missing: %v", err)
	}
}

func TestEngineeringSetErrors(t *testing.T) {
	s := &EngineeringSet{Name: "x", Kind: PSDFSet}
	if _, err := s.Generate(); err == nil {
		t.Error("PSDF set without model generated")
	}
	s = &EngineeringSet{Name: "x", Kind: PSMSet}
	if _, err := s.Generate(); err == nil {
		t.Error("PSM set without platform generated")
	}
	s = &EngineeringSet{Name: "x", Kind: SetKind(9)}
	if _, err := s.Generate(); err == nil {
		t.Error("unknown kind generated")
	}
}

func TestSetKindString(t *testing.T) {
	if PSDFSet.String() != "PSDF" || PSMSet.String() != "PSM" {
		t.Error("SetKind.String() mismatch")
	}
}

// TestGeneratePSDFScalesLinearly fences the renderer's cost on large
// models: an 8× longer process chain must cost well under 20× as much
// (a per-process scan of the flow list measures about 30×). The two
// sizes are timed alternately and each keeps its fastest round, so CPU
// contention from other tests hits both sides alike.
func TestGeneratePSDFScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	var models [2]*psdf.Model
	for i, n := range [2]int{2000, 16000} {
		m := psdf.NewModel("chain")
		for j := 0; j+1 < n; j++ {
			m.AddFlow(psdf.Flow{Source: psdf.ProcessID(j), Target: psdf.ProcessID(j + 1), Items: 36, Order: j + 1, Ticks: 5})
		}
		models[i] = m
	}
	best := [2]time.Duration{1<<63 - 1, 1<<63 - 1}
	for round := 0; round < 7; round++ {
		for i, m := range models {
			runtime.GC() // start each run without the previous one's garbage
			start := time.Now()
			if _, err := GeneratePSDF(m); err != nil {
				t.Fatal(err)
			}
			best[i] = min(best[i], time.Since(start))
		}
	}
	small, large := best[0], best[1]
	ratio := float64(large) / float64(small)
	t.Logf("2k processes: %v, 16k: %v (%.1f×)", small, large, ratio)
	if ratio >= 20 {
		t.Errorf("16k-process PSDF takes %v, %.1f× the 2k-process %v; want < 20×", large, ratio, small)
	}
}
