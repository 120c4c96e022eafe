package psdf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestProcessIDString(t *testing.T) {
	cases := []struct {
		id   ProcessID
		want string
	}{
		{0, "P0"}, {1, "P1"}, {14, "P14"}, {137, "P137"},
	}
	for _, c := range cases {
		if got := c.id.String(); got != c.want {
			t.Errorf("ProcessID(%d).String() = %q, want %q", int(c.id), got, c.want)
		}
	}
}

func TestParseProcessName(t *testing.T) {
	good := map[string]ProcessID{
		"P0": 0, "P1": 1, "P14": 14, "P100": 100,
	}
	for name, want := range good {
		got, err := ParseProcessName(name)
		if err != nil {
			t.Errorf("ParseProcessName(%q): %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("ParseProcessName(%q) = %v, want %v", name, got, want)
		}
	}
	bad := []string{"", "P", "p0", "Q1", "P-1", "P01", "P1x", "1", "P99999999"}
	for _, name := range bad {
		if _, err := ParseProcessName(name); err == nil {
			t.Errorf("ParseProcessName(%q) succeeded, want error", name)
		}
	}
}

func TestParseProcessNameRoundTrip(t *testing.T) {
	f := func(n uint16) bool {
		p := ProcessID(n)
		got, err := ParseProcessName(p.String())
		return err == nil && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlowName(t *testing.T) {
	f := Flow{Source: 0, Target: 1, Items: 576, Order: 1, Ticks: 250}
	if got, want := f.Name(), "P1_576_1_250"; got != want {
		t.Errorf("Name() = %q, want %q (the paper's documented encoding)", got, want)
	}
}

func TestParseFlowName(t *testing.T) {
	f, err := ParseFlowName(0, "P1_576_1_250")
	if err != nil {
		t.Fatal(err)
	}
	want := Flow{Source: 0, Target: 1, Items: 576, Order: 1, Ticks: 250}
	if f != want {
		t.Errorf("ParseFlowName = %+v, want %+v", f, want)
	}
}

// TestParseFlowNameSystemOutput checks that a flow to the system
// output, which Name renders with target "P-1", parses back, and that
// no other negative target does.
func TestParseFlowNameSystemOutput(t *testing.T) {
	want := Flow{Source: 2, Target: SystemOutput, Items: 36, Order: 4, Ticks: 10}
	f, err := ParseFlowName(2, want.Name())
	if err != nil || f != want {
		t.Fatalf("ParseFlowName(%q) = %+v, %v; want %+v", want.Name(), f, err, want)
	}
	for _, name := range []string{"P-2_36_4_10", "P-01_36_4_10", "P-0_36_4_10"} {
		if _, err := ParseFlowName(2, name); err == nil {
			t.Errorf("ParseFlowName(%q) succeeded, want error", name)
		}
	}
}

func TestParseFlowNameErrors(t *testing.T) {
	bad := []string{
		"",
		"P1",
		"P1_576",
		"P1_576_1",
		"P1_576_1_250_9",
		"X1_576_1_250",
		"P1_abc_1_250",
		"P1_576_x_250",
		"P1_576_1_x",
		"P1_5 6_1_250",
		"P1_-576_1_250_",
	}
	for _, name := range bad {
		if _, err := ParseFlowName(0, name); err == nil {
			t.Errorf("ParseFlowName(%q) succeeded, want error", name)
		}
	}
}

func TestParseFlowNameRoundTrip(t *testing.T) {
	f := func(target uint8, items uint16, order uint8, ticks uint16) bool {
		in := Flow{
			Source: 99,
			Target: ProcessID(target),
			Items:  int(items) + 1,
			Order:  int(order),
			Ticks:  int(ticks),
		}
		out, err := ParseFlowName(99, in.Name())
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackages(t *testing.T) {
	cases := []struct {
		items, s, want int
	}{
		{576, 36, 16},
		{540, 36, 15},
		{36, 36, 1},
		{576, 18, 32},
		{37, 36, 2},
		{1, 36, 1},
		{0, 36, 0},
		{576, 1, 576},
	}
	for _, c := range cases {
		f := Flow{Items: c.items}
		if got := f.Packages(c.s); got != c.want {
			t.Errorf("Flow{Items:%d}.Packages(%d) = %d, want %d", c.items, c.s, got, c.want)
		}
	}
}

func TestPackagesPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Packages(0) did not panic")
		}
	}()
	Flow{Items: 10}.Packages(0)
}

func TestPackagesCoversAllItems(t *testing.T) {
	f := func(items uint16, s uint8) bool {
		size := int(s)%100 + 1
		n := int(items)
		pk := Flow{Items: n}.Packages(size)
		if n <= 0 {
			return pk == 0
		}
		return pk*size >= n && (pk-1)*size < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func buildModel() *Model {
	m := NewModel("test")
	m.AddFlow(Flow{Source: 0, Target: 1, Items: 100, Order: 1, Ticks: 10})
	m.AddFlow(Flow{Source: 1, Target: 2, Items: 50, Order: 2, Ticks: 20})
	m.AddFlow(Flow{Source: 1, Target: 3, Items: 50, Order: 2, Ticks: 20})
	m.AddFlow(Flow{Source: 2, Target: 3, Items: 25, Order: 3, Ticks: 5})
	return m
}

func TestModelAccessors(t *testing.T) {
	m := buildModel()
	if got := m.Name(); got != "test" {
		t.Errorf("Name() = %q", got)
	}
	if got := m.NumProcesses(); got != 4 {
		t.Errorf("NumProcesses() = %d, want 4", got)
	}
	if got := m.NumFlows(); got != 4 {
		t.Errorf("NumFlows() = %d, want 4", got)
	}
	procs := m.Processes()
	for i, p := range procs {
		if int(p) != i {
			t.Errorf("Processes()[%d] = %v, want P%d", i, p, i)
		}
	}
	if got := m.TotalItems(); got != 225 {
		t.Errorf("TotalItems() = %d, want 225", got)
	}
	if got := m.TotalPackages(50); got != 2+1+1+1 {
		t.Errorf("TotalPackages(50) = %d, want 5", got)
	}
}

func TestModelFlowsSorted(t *testing.T) {
	m := NewModel("order")
	m.AddFlow(Flow{Source: 5, Target: 6, Items: 1, Order: 3})
	m.AddFlow(Flow{Source: 0, Target: 1, Items: 1, Order: 1})
	m.AddFlow(Flow{Source: 2, Target: 3, Items: 1, Order: 1})
	fs := m.Flows()
	if fs[0].Source != 0 || fs[1].Source != 2 || fs[2].Source != 5 {
		t.Errorf("Flows() not sorted by (order, source): %v", fs)
	}
}

func TestFlowsFromInto(t *testing.T) {
	m := buildModel()
	from1 := m.FlowsFrom(1)
	if len(from1) != 2 {
		t.Fatalf("FlowsFrom(1) = %d flows, want 2", len(from1))
	}
	into3 := m.FlowsInto(3)
	if len(into3) != 2 {
		t.Fatalf("FlowsInto(3) = %d flows, want 2", len(into3))
	}
	for _, f := range into3 {
		if f.Target != 3 {
			t.Errorf("FlowsInto(3) returned flow targeting %v", f.Target)
		}
	}
}

func TestSourcesSinks(t *testing.T) {
	m := buildModel()
	src := m.Sources()
	if len(src) != 1 || src[0] != 0 {
		t.Errorf("Sources() = %v, want [P0]", src)
	}
	snk := m.Sinks()
	if len(snk) != 1 || snk[0] != 3 {
		t.Errorf("Sinks() = %v, want [P3]", snk)
	}
}

func TestSystemOutputFlows(t *testing.T) {
	m := NewModel("out")
	m.AddFlow(Flow{Source: 0, Target: SystemOutput, Items: 10, Order: 1})
	if m.NumProcesses() != 1 {
		t.Errorf("SystemOutput must not be counted as a process; got %d processes", m.NumProcesses())
	}
	// A process emitting only to the system output still emits, so it
	// is not a structural sink.
	if got := m.Sinks(); len(got) != 0 {
		t.Errorf("Sinks() = %v, want none", got)
	}
}

func TestOrders(t *testing.T) {
	m := buildModel()
	got := m.Orders()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Orders() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Orders() = %v, want %v", got, want)
		}
	}
}

func TestClone(t *testing.T) {
	m := buildModel()
	m.SetNominalPackageSize(36)
	c := m.Clone()
	if c.Name() != m.Name() || c.NumFlows() != m.NumFlows() || c.NominalPackageSize() != 36 {
		t.Fatal("Clone() lost data")
	}
	c.AddFlow(Flow{Source: 3, Target: 4, Items: 1, Order: 4})
	if m.NumFlows() == c.NumFlows() {
		t.Error("Clone() shares flow storage with the original")
	}
}

func TestSetNominalPackageSizePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetNominalPackageSize(-1) did not panic")
		}
	}()
	NewModel("x").SetNominalPackageSize(-1)
}

func TestValidateAcceptsGoodModel(t *testing.T) {
	if err := buildModel().Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *Model
		wantSub string
	}{
		{
			"empty model",
			func() *Model { return NewModel("empty") },
			"no processes",
		},
		{
			"no flows",
			func() *Model {
				m := NewModel("p-only")
				m.AddProcess(0)
				return m
			},
			"no flows",
		},
		{
			"non-positive items",
			func() *Model {
				m := NewModel("zero-items")
				m.AddFlow(Flow{Source: 0, Target: 1, Items: 0, Order: 1})
				return m
			},
			"non-positive data item count",
		},
		{
			"negative order",
			func() *Model {
				m := NewModel("neg-order")
				m.AddFlow(Flow{Source: 0, Target: 1, Items: 1, Order: -1})
				return m
			},
			"negative ordering number",
		},
		{
			"negative ticks",
			func() *Model {
				m := NewModel("neg-ticks")
				m.AddFlow(Flow{Source: 0, Target: 1, Items: 1, Order: 1, Ticks: -2})
				return m
			},
			"negative per-package tick count",
		},
		{
			"self loop",
			func() *Model {
				m := NewModel("loop")
				m.AddFlow(Flow{Source: 0, Target: 0, Items: 1, Order: 1})
				return m
			},
			"self-loop",
		},
		{
			"duplicate flow",
			func() *Model {
				m := NewModel("dup")
				m.AddFlow(Flow{Source: 0, Target: 1, Items: 1, Order: 1})
				m.AddFlow(Flow{Source: 0, Target: 1, Items: 2, Order: 1})
				return m
			},
			"duplicate flow",
		},
		{
			"isolated process",
			func() *Model {
				m := NewModel("island")
				m.AddFlow(Flow{Source: 0, Target: 1, Items: 1, Order: 1})
				m.AddProcess(9)
				return m
			},
			"isolated",
		},
		{
			"output ordered before all inputs",
			func() *Model {
				m := NewModel("early")
				m.AddFlow(Flow{Source: 0, Target: 1, Items: 1, Order: 5})
				m.AddFlow(Flow{Source: 1, Target: 2, Items: 1, Order: 1})
				return m
			},
			"ordered (1) before every flow feeding its source",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.build().Validate()
			if err == nil {
				t.Fatal("Validate() accepted an invalid model")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("Validate() error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestValidationErrorsAggregates(t *testing.T) {
	m := NewModel("multi")
	m.AddFlow(Flow{Source: 0, Target: 0, Items: 0, Order: -1, Ticks: -1})
	err := m.Validate()
	verrs, ok := err.(ValidationErrors)
	if !ok {
		t.Fatalf("Validate() returned %T, want ValidationErrors", err)
	}
	if len(verrs) < 4 {
		t.Errorf("expected at least 4 violations for a maximally broken flow, got %d: %v", len(verrs), verrs)
	}
}

func TestValidateAllowsEqualOrderPipelines(t *testing.T) {
	// Two flows sharing an ordering number coexist (section 3.1).
	m := NewModel("concurrent")
	m.AddFlow(Flow{Source: 0, Target: 1, Items: 10, Order: 1})
	m.AddFlow(Flow{Source: 0, Target: 2, Items: 10, Order: 1})
	m.AddFlow(Flow{Source: 1, Target: 3, Items: 10, Order: 2})
	m.AddFlow(Flow{Source: 2, Target: 3, Items: 10, Order: 2})
	if err := m.Validate(); err != nil {
		t.Errorf("concurrent same-order flows rejected: %v", err)
	}
}

func TestValidateRandomLayeredModelsAlwaysPass(t *testing.T) {
	// Property: layered generation with per-layer orders is always a
	// valid model.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := NewModel(fmt.Sprintf("rand%d", trial))
		layers := 2 + rng.Intn(4)
		perLayer := 1 + rng.Intn(3)
		id := 0
		var prev []ProcessID
		order := 1
		for l := 0; l < layers; l++ {
			var cur []ProcessID
			for i := 0; i < perLayer; i++ {
				cur = append(cur, ProcessID(id))
				id++
			}
			if l > 0 {
				for _, dst := range cur {
					src := prev[rng.Intn(len(prev))]
					m.AddFlow(Flow{Source: src, Target: dst, Items: 1 + rng.Intn(100), Order: order, Ticks: rng.Intn(50)})
					order++
				}
			}
			prev = cur
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: layered model rejected: %v", trial, err)
		}
	}
}
