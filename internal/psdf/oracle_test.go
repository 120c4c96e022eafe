package psdf

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// This file keeps the map-based process set and Validate the model
// used before its processes became sorted runs, and Flows as it was
// sorted with sort.Slice: the oracles the model is held to, exactly
// (FuzzModelValidate).

// oracleProcessSet is the model's process set as the map it was kept
// in.
func oracleProcessSet(m *Model) map[ProcessID]bool {
	set := make(map[ProcessID]bool)
	for _, p := range m.procs {
		set[p] = true
	}
	return set
}

func oracleProcesses(m *Model) []ProcessID {
	set := oracleProcessSet(m)
	out := make([]ProcessID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func oracleSources(m *Model) []ProcessID {
	hasInput := make(map[ProcessID]bool)
	for _, f := range m.flows {
		if f.Target != SystemOutput {
			hasInput[f.Target] = true
		}
	}
	var out []ProcessID
	for _, p := range oracleProcesses(m) {
		if !hasInput[p] {
			out = append(out, p)
		}
	}
	return out
}

func oracleSinks(m *Model) []ProcessID {
	hasOutput := make(map[ProcessID]bool)
	for _, f := range m.flows {
		hasOutput[f.Source] = true
	}
	var out []ProcessID
	for _, p := range oracleProcesses(m) {
		if !hasOutput[p] {
			out = append(out, p)
		}
	}
	return out
}

func oracleFlows(m *Model) []Flow {
	out := make([]Flow, len(m.flows))
	copy(out, m.flows)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Order != b.Order {
			return a.Order < b.Order
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Target < b.Target
	})
	return out
}

func oracleOrders(m *Model) []int {
	seen := make(map[int]bool)
	for _, f := range m.flows {
		seen[f.Order] = true
	}
	out := make([]int, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

func oracleCommunicationMatrix(m *Model) *CommMatrix {
	n := 0
	for p := range oracleProcessSet(m) {
		if int(p)+1 > n {
			n = int(p) + 1
		}
	}
	cm := NewCommMatrix(n)
	for _, f := range m.flows {
		if f.Target == SystemOutput {
			continue
		}
		cm.Add(f.Source, f.Target, f.Items)
	}
	return cm
}

// oracleValidate is Model.Validate over maps.
func oracleValidate(m *Model) error {
	var errs ValidationErrors
	add := func(code string, f *Flow, format string, args ...interface{}) {
		errs = append(errs, &ValidationError{Code: code, Flow: f, Message: fmt.Sprintf(format, args...)})
	}
	processes := oracleProcesses(m)

	if len(processes) == 0 {
		add(CodeNoProcesses, nil, "model %q has no processes", m.name)
	}
	if len(m.flows) == 0 {
		add(CodeNoFlows, nil, "model %q has no flows", m.name)
	}

	type key struct {
		src, dst ProcessID
		order    int
	}
	seen := make(map[key]bool)
	for i := range m.flows {
		f := m.flows[i]
		if f.Items <= 0 {
			add(CodeBadItems, &m.flows[i], "non-positive data item count %d", f.Items)
		}
		if f.Order < 0 {
			add(CodeBadOrder, &m.flows[i], "negative ordering number %d", f.Order)
		}
		if f.Ticks < 0 {
			add(CodeBadTicks, &m.flows[i], "negative per-package tick count %d", f.Ticks)
		}
		if f.Source == f.Target {
			add(CodeSelfLoop, &m.flows[i], "self-loop")
		}
		if f.Target == SystemOutput {
			continue
		}
		k := key{f.Source, f.Target, f.Order}
		if seen[k] {
			add(CodeDuplicateFlow, &m.flows[i], "duplicate flow (same source, target and ordering number)")
		}
		seen[k] = true
	}

	// Isolated processes: declared but carrying no flow at all.
	if len(m.flows) > 0 {
		touched := make(map[ProcessID]bool)
		for _, f := range m.flows {
			touched[f.Source] = true
			if f.Target != SystemOutput {
				touched[f.Target] = true
			}
		}
		for _, p := range processes {
			if !touched[p] {
				add(CodeIsolated, nil, "process %s is isolated (no incoming or outgoing flow)", p)
			}
		}
	}

	// Reachability from initial nodes.
	if len(m.flows) > 0 {
		reach := make(map[ProcessID]bool)
		var frontier []ProcessID
		for _, p := range oracleSources(m) {
			reach[p] = true
			frontier = append(frontier, p)
		}
		adj := make(map[ProcessID][]ProcessID)
		for _, f := range m.flows {
			if f.Target != SystemOutput {
				adj[f.Source] = append(adj[f.Source], f.Target)
			}
		}
		for len(frontier) > 0 {
			p := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, q := range adj[p] {
				if !reach[q] {
					reach[q] = true
					frontier = append(frontier, q)
				}
			}
		}
		var unreachable []ProcessID
		for _, p := range processes {
			if !reach[p] {
				unreachable = append(unreachable, p)
			}
		}
		sort.Slice(unreachable, func(i, j int) bool { return unreachable[i] < unreachable[j] })
		for _, p := range unreachable {
			add(CodeUnreachable, nil, "process %s is not reachable from any initial node", p)
		}
	}

	// Ordering consistency: a process's output flow must not be
	// strictly ordered before all flows feeding that process.
	inOrders := make(map[ProcessID][]int)
	for _, f := range m.flows {
		if f.Target != SystemOutput {
			inOrders[f.Target] = append(inOrders[f.Target], f.Order)
		}
	}
	for i := range m.flows {
		f := m.flows[i]
		ins := inOrders[f.Source]
		if len(ins) == 0 {
			continue
		}
		minIn := ins[0]
		for _, t := range ins[1:] {
			if t < minIn {
				minIn = t
			}
		}
		if f.Order < minIn {
			add(CodeOrderTooEarly, &m.flows[i], "ordered (%d) before every flow feeding its source (earliest input order %d)", f.Order, minIn)
		}
	}

	if len(errs) == 0 {
		return nil
	}
	return errs
}

// CheckOracles fails t unless every process-set reader of m and its
// Validate equal their map-based oracles exactly: the same slices (nil
// or not), the same matrix (or the same panic), and the same
// validation verdict — nil or the same errors, in the same order, with
// the same codes, texts and flow pointers.
func CheckOracles(t testing.TB, m *Model) {
	t.Helper()
	if got, want := m.NumProcesses(), len(oracleProcesses(m)); got != want {
		t.Fatalf("NumProcesses() = %d, oracle %d", got, want)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Processes", m.Processes(), oracleProcesses(m)},
		{"Sources", m.Sources(), oracleSources(m)},
		{"Sinks", m.Sinks(), oracleSinks(m)},
		{"Orders", m.Orders(), oracleOrders(m)},
		{"Flows", m.Flows(), oracleFlows(m)},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s() = %#v, oracle %#v", c.name, c.got, c.want)
		}
	}
	cm, cmPanic := catchMatrix(m.CommunicationMatrix)
	ocm, ocmPanic := catchMatrix(func() *CommMatrix { return oracleCommunicationMatrix(m) })
	if cmPanic != ocmPanic || cm != nil && !cm.Equal(ocm) {
		t.Fatalf("CommunicationMatrix() = %v (panic %q), oracle %v (panic %q)", cm, cmPanic, ocm, ocmPanic)
	}
	sameErrors(t, m.Validate(), oracleValidate(m))
	c := m.Clone()
	if !reflect.DeepEqual(c.Processes(), m.Processes()) || c.NumFlows() != m.NumFlows() {
		t.Fatal("Clone() changed the model")
	}
}

// catchMatrix calls build and returns its matrix or its panic.
func catchMatrix(build func() *CommMatrix) (cm *CommMatrix, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return build(), ""
}

// sameErrors fails t unless got and want are both nil or are equal
// ValidationErrors.
func sameErrors(t testing.TB, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("Validate() = %v, oracle %v", got, want)
	}
	if got == nil {
		return
	}
	g, w := got.(ValidationErrors), want.(ValidationErrors)
	if len(g) != len(w) {
		t.Fatalf("Validate() found %d errors, oracle %d:\n%v\n%v", len(g), len(w), got, want)
	}
	for i := range g {
		if g[i].Code != w[i].Code || g[i].Message != w[i].Message || g[i].Flow != w[i].Flow {
			t.Fatalf("error %d: %v (flow %p), oracle %v (flow %p)", i, g[i], g[i].Flow, w[i], w[i].Flow)
		}
	}
	if got.Error() != want.Error() {
		t.Fatalf("Validate() text %q, oracle %q", got.Error(), want.Error())
	}
}
