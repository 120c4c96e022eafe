package psdf

import (
	"fmt"
	"strings"
	"testing"
)

// sscanfFlowName is ParseFlowName as it was written with fmt: each
// number is scanned with Sscanf and must print back unchanged. Like
// ParseFlowName, it reads the target "P-1" as the system output.
func sscanfFlowName(source ProcessID, name string) (Flow, error) {
	parts := strings.Split(name, "_")
	if len(parts) != 4 {
		return Flow{}, fmt.Errorf("psdf: flow name %q: want 4 '_'-separated fields, got %d", name, len(parts))
	}
	target := SystemOutput
	if parts[0] != "P-1" {
		var err error
		if target, err = ParseProcessName(parts[0]); err != nil {
			return Flow{}, fmt.Errorf("psdf: flow name %q: %v", name, err)
		}
	}
	var items, order, ticks int
	if _, err := fmt.Sscanf(parts[1], "%d", &items); err != nil || fmt.Sprintf("%d", items) != parts[1] {
		return Flow{}, fmt.Errorf("psdf: flow name %q: bad item count %q", name, parts[1])
	}
	if _, err := fmt.Sscanf(parts[2], "%d", &order); err != nil || fmt.Sprintf("%d", order) != parts[2] {
		return Flow{}, fmt.Errorf("psdf: flow name %q: bad ordering number %q", name, parts[2])
	}
	if _, err := fmt.Sscanf(parts[3], "%d", &ticks); err != nil || fmt.Sprintf("%d", ticks) != parts[3] {
		return Flow{}, fmt.Errorf("psdf: flow name %q: bad tick count %q", name, parts[3])
	}
	return Flow{Source: source, Target: target, Items: items, Order: order, Ticks: ticks}, nil
}

// FuzzParseFlowName checks that the flow-name decoder never panics,
// that accepted names round-trip exactly and that it accepts exactly
// what sscanfFlowName, the decoder's earlier implementation, accepted.
func FuzzParseFlowName(f *testing.F) {
	for _, seed := range []string{
		"P1_576_1_250",
		"P0_1_0_0",
		"P14_36_16_140",
		"",
		"P1",
		"P1_576",
		"garbage",
		"P1_576_1_250_extra",
		"P01_1_1_1",
		"P1_-5_1_1",
		"P999999999999_1_1_1",
		"P1_+5_1_1",
		"P1_05_1_1",
		"P1_5x_1_1",
		"P1_-0_1_1",
		"P1_1_ 5_1",
		"P1_1_1_9223372036854775807",
		"P1_1_1_9223372036854775808",
		"P1_-9223372036854775808_1_1",
		"P-1_36_4_10",
		"P-01_36_4_10",
		"P-2_36_4_10",
		"P-1_36_4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		flow, err := ParseFlowName(7, name)
		ref, refErr := sscanfFlowName(7, name)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() || flow != ref {
			t.Fatalf("%q: got (%v, %v), reference (%v, %v)", name, flow, err, ref, refErr)
		}
		if err != nil {
			return
		}
		if flow.Source != 7 {
			t.Fatalf("source corrupted: %v", flow)
		}
		if flow.Name() != name {
			t.Fatalf("accepted %q but renders %q", name, flow.Name())
		}
	})
}

// FuzzParseProcessName checks the process-name decoder likewise.
func FuzzParseProcessName(f *testing.F) {
	for _, seed := range []string{"P0", "P15", "", "P", "p1", "P01", "P1x", "P4294967296"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		p, err := ParseProcessName(name)
		if err != nil {
			return
		}
		if p.String() != name {
			t.Fatalf("accepted %q but renders %q", name, p.String())
		}
	})
}
