package analyze

import (
	"strings"
	"testing"

	"segbus/internal/dsl"
)

// FuzzAnalyze feeds arbitrary text through the DSL parser and, for
// every document that parses, runs the full analyzer registry plus
// both renderings. The properties: analysis never panics, whatever the
// model looks like — broken platforms, cycles, isolated processes —
// and every consumer of the shared admission agrees with the gate it
// had of its own (CheckAgreement), the closed-form bounds with the
// per-package walk byte for byte among them (SameBounds). Documents
// whose package count exceeds maxFuzzPackages are skipped: that walk
// visits every package, so a fuzzed item count would otherwise stall
// the target.
func FuzzAnalyze(f *testing.F) {
	f.Add("application empty\n")
	// A cyclic same-stage flow pair (provable deadlock, SB101).
	f.Add(`application cyclic
flow P0 -> P1 items=36 order=1 ticks=5
flow P1 -> P0 items=36 order=1 ticks=5
`)
	// An isolated process next to a working pipeline (SB008).
	f.Add(`application isolated
process P9
flow P0 -> P1 items=36 order=1 ticks=5
flow P1 -> out items=36 order=2 ticks=5
`)
	// A platformed document exercising bounds and congestion.
	f.Add(`application demo
flow P0 -> P1 items=144 order=1 ticks=50
flow P1 -> P2 items=144 order=2 ticks=50
platform demo-plat
ca-clock 100MHz
package-size 36
segment 1 clock=90MHz processes=P0,P1
segment 2 clock=95MHz processes=P2
`)
	// Degenerate platform numbers must be reported, not crash.
	f.Add(`application broken
flow P0 -> P1 items=1 order=0 ticks=0
platform broken-plat
ca-clock 0Hz
package-size -3
segment 1 clock=0Hz processes=P0
`)

	f.Fuzz(func(t *testing.T, src string) {
		doc, err := dsl.Parse(strings.NewReader(src))
		if err != nil {
			return // only parsed documents are analyzed
		}
		if packages(doc) > maxFuzzPackages {
			return
		}
		res := Run(doc, Options{})
		if res == nil {
			t.Fatal("Run returned nil result")
		}
		_ = res.String()
		if _, err := res.JSON(); err != nil {
			t.Fatalf("JSON rendering failed: %v", err)
		}
		if err := CheckAgreement(doc); err != nil {
			t.Fatal(err)
		}
	})
}

// maxFuzzPackages bounds the package transfers of a fuzzed document.
const maxFuzzPackages = 1 << 20

// packages counts doc's package transfers at the platform's package
// size, or at the nominal one (1 when unset) when that is not
// positive.
func packages(doc *dsl.Document) int {
	s := doc.Model.NominalPackageSize()
	if doc.Platform != nil && doc.Platform.PackageSize > 0 {
		s = doc.Platform.PackageSize
	}
	s = max(s, 1)
	n := 0
	for _, f := range doc.Model.Flows() {
		n += f.Packages(s)
		if n > maxFuzzPackages {
			break
		}
	}
	return n
}
