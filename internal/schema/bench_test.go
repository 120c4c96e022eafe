package schema

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"segbus/internal/apps"
	"segbus/internal/m2t"
)

// BenchmarkParsePSDF measures the emulator set-up parse of the MP3
// scheme.
func BenchmarkParsePSDF(b *testing.B) {
	data, err := m2t.GeneratePSDF(apps.MP3Model())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePSDF(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParsePSM measures the platform reconstruction.
func BenchmarkParsePSM(b *testing.B) {
	data, err := m2t.GeneratePSM(apps.MP3Platform3(36))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePSM(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParsePSDFReencoded measures the MP3 scheme re-encoded the
// way the benchmark's warm workload serves half its requests: an XML
// comment after the declaration and tab indentation.
func BenchmarkParsePSDFReencoded(b *testing.B) {
	data, err := m2t.GeneratePSDF(apps.MP3Model())
	if err != nil {
		b.Fatal(err)
	}
	data = bytes.Replace(data, []byte("?>\n"), []byte("?>\n<!-- request 1 -->\n"), 1)
	data = bytes.ReplaceAll(data, []byte("  "), []byte("\t"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePSDF(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseAllocs fences the allocations of parsing the MP3 goldens.
// The decoder alone made 1,464 (PSDF) and 1,792 (PSM).
func TestParseAllocs(t *testing.T) {
	for _, c := range []struct {
		golden string
		parse  func([]byte) error
		max    float64
	}{
		{"mp3-psdf.xsd", func(d []byte) error { _, err := ParsePSDF(d); return err }, 200},
		{"mp3-psm.xsd", func(d []byte) error { _, err := ParsePSM(d); return err }, 100},
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var parseErr error
		allocs := testing.AllocsPerRun(20, func() { parseErr = c.parse(data) })
		if parseErr != nil {
			t.Fatalf("%s: %v", c.golden, parseErr)
		}
		if allocs > c.max {
			t.Errorf("%s: %.0f allocations per parse, want at most %.0f", c.golden, allocs, c.max)
		}
		t.Logf("%s: %.0f allocations per parse", c.golden, allocs)
	}
}

// TestParseScalesLinearly parses chain schemes of 4k and 32k elements:
// 8× the input must cost well under 64×, the quadratic growth of
// looking complex types and segments up by linear scans.
func TestParseScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("times 32k-element parses")
	}
	for _, c := range []struct {
		kind  string
		doc   func(n int) []byte
		parse func([]byte) error
	}{
		{"PSDF", chainPSDF, func(d []byte) error { _, err := ParsePSDF(d); return err }},
		{"PSM", chainPSM, func(d []byte) error { _, err := ParsePSM(d); return err }},
	} {
		fastest := func(n int) time.Duration {
			data := c.doc(n)
			best := time.Duration(math.MaxInt64)
			for i := 0; i < 3; i++ {
				runtime.GC()
				start := time.Now()
				if err := c.parse(data); err != nil {
					t.Fatalf("%s %d: %v", c.kind, n, err)
				}
				best = min(best, time.Since(start))
			}
			return best
		}
		small, large := fastest(4<<10), fastest(32<<10)
		ratio := float64(large) / float64(small)
		t.Logf("%s: %v for 4k, %v for 32k (%.1f×)", c.kind, small, large, ratio)
		if ratio >= 20 {
			t.Errorf("%s: 8× the elements took %.1f× the time, want < 20×", c.kind, ratio)
		}
	}
}

// chainPSDF renders a PSDF scheme of n processes, each feeding the
// next: about 2n elements.
func chainPSDF(n int) []byte {
	var b strings.Builder
	b.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="chain" type="Chain"/><xs:complexType name="Chain"><xs:all>`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<xs:element name="p%d" type="P%d"/>`, i, i)
	}
	b.WriteString(`</xs:all></xs:complexType>`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<xs:complexType name="P%d"><xs:all>`, i)
		if i+1 < n {
			fmt.Fprintf(&b, `<xs:element name="P%d_36_1_10" type="Transfer"/>`, i+1)
		}
		b.WriteString(`</xs:all></xs:complexType>`)
	}
	b.WriteString(`</xs:schema>`)
	return []byte(b.String())
}

// chainPSM renders a platform scheme of n one-FU segments: about 3n
// elements.
func chainPSM(n int) []byte {
	var b strings.Builder
	b.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="sbp" type="SBP"/><xs:complexType name="SBP"><xs:annotation><xs:appinfo>caClockHz=100000000</xs:appinfo><xs:appinfo>packageSize=36</xs:appinfo></xs:annotation><xs:all>`)
	for i := n; i >= 1; i-- {
		fmt.Fprintf(&b, `<xs:element name="segment%d" type="Segment%d"/>`, i, i)
	}
	b.WriteString(`</xs:all></xs:complexType>`)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, `<xs:complexType name="Segment%d"><xs:annotation><xs:appinfo>clockHz=90000000</xs:appinfo></xs:annotation><xs:all><xs:element name="p%d" type="P%d"/></xs:all></xs:complexType>`, i, i-1, i-1)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<xs:complexType name="P%d"><xs:all><xs:element name="master" type="Master"/></xs:all></xs:complexType>`, i)
	}
	b.WriteString(`</xs:schema>`)
	return []byte(b.String())
}
