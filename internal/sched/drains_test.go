package sched_test

import (
	"path/filepath"
	"testing"

	"segbus/internal/conform"
	"segbus/internal/dsl"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// referenceDrains fires the schedule one package at a time: stage by
// stage, every source walks its same-stage packages in canonical order
// and emits the next one whenever its gate (Need) is covered by the
// packages it has received so far, until no source can move. The
// schedule drains iff every stage delivers all of its packages.
func referenceDrains(sch *sched.Schedule) bool {
	recv := make(map[psdf.ProcessID]int)
	for si, st := range sch.Stages() {
		next := make(map[sched.FlowID]int) // packages emitted per flow
		delivered := 0
		for moved := true; moved; {
			moved = false
			for i, id := range st.Flows {
				src := sch.Flow(id).Source
				if i > 0 && sch.Flow(st.Flows[i-1]).Source == src &&
					next[st.Flows[i-1]] < sch.Packages(st.Flows[i-1]) {
					continue // the source's earlier flow goes first
				}
				for next[id] < sch.Packages(id) && sch.Need(id, next[id]+1) <= recv[src] {
					next[id]++
					recv[sch.Flow(id).Target]++
					delivered++
					moved = true
				}
			}
		}
		if delivered != sch.StagePackages(si) {
			return false
		}
	}
	return true
}

// TestDrainsMatchesPackageReference holds the closed-form fixpoint to
// the package-by-package firing on the scenario corpus (deadlocking
// models included), 200 generated models and a same-order cyclic
// mutant of each, at package sizes 1, 7, the model's nominal size and
// 576. Both verdicts must occur.
func TestDrainsMatchesPackageReference(t *testing.T) {
	var docs []*dsl.Document
	for _, dir := range []string{"", "deadlock"} {
		corpus, err := conform.LoadCorpusDir(filepath.Join("..", "..", "testdata", "scenarios", dir))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, corpus...)
	}
	g := conform.NewGenerator(7, nil)
	for i := 0; i < 200; i++ {
		doc := g.Next().Doc
		docs = append(docs, doc)
		if mut := conform.CyclicMutant(doc, 0); mut != nil {
			docs = append(docs, mut)
		}
	}

	drains, stalls := 0, 0
	for _, doc := range docs {
		m := doc.Model
		for _, s := range []int{1, 7, m.NominalPackageSize(), 576} {
			if s <= 0 {
				continue
			}
			sch, err := sched.Extract(m, s)
			if err != nil {
				t.Fatal(err)
			}
			got, want := sch.Drains(), referenceDrains(sch)
			if got != want {
				t.Fatalf("%s s=%d: Drains() = %v, package-by-package firing drains = %v", m.Name(), s, got, want)
			}
			if got {
				drains++
			} else {
				stalls++
			}
		}
	}
	if drains == 0 || stalls < 50 {
		t.Fatalf("%d draining and %d stalling schedules, want both, with at least 50 stalls", drains, stalls)
	}
	t.Logf("%d draining, %d stalling schedules", drains, stalls)
}

// TestDrainsGates pins the verdict on small hand-built schedules at
// package size 1: chains drain, a same-order cycle stalls unless the
// feedback leaves before the source's last package, and a later stage
// stalls on its own.
func TestDrainsGates(t *testing.T) {
	type flow struct{ src, dst, items, order int }
	cases := []struct {
		name  string
		flows []flow
		want  bool
	}{
		{"chain", []flow{{0, 1, 4, 1}, {1, 2, 4, 2}}, true},
		{"same-order chain", []flow{{0, 1, 4, 1}, {1, 2, 4, 1}}, true},
		{"unprimed cycle", []flow{{0, 1, 4, 1}, {1, 0, 4, 1}}, false},
		// P1's last package back to P0 needs all of P1's input, which
		// needs P0's last package, which needs all of P0's input.
		{"cycle closed by the last package", []flow{{2, 0, 4, 1}, {0, 1, 4, 1}, {1, 0, 4, 1}}, false},
		// P1 sends back to P0 first and to P3 last: its feedback needs
		// only half its input.
		{"cycle closed early", []flow{{2, 0, 4, 1}, {0, 1, 4, 1}, {1, 0, 2, 1}, {1, 3, 2, 1}}, true},
		{"fan-out over two flows", []flow{{0, 1, 2, 1}, {1, 2, 3, 1}, {1, 3, 3, 1}}, true},
		{"second stage cycle", []flow{{0, 1, 2, 1}, {1, 2, 2, 2}, {2, 1, 2, 2}}, false},
	}
	for _, c := range cases {
		m := psdf.NewModel(c.name)
		for _, f := range c.flows {
			m.AddFlow(psdf.Flow{Source: psdf.ProcessID(f.src), Target: psdf.ProcessID(f.dst), Items: f.items, Order: f.order, Ticks: 1})
		}
		sch, err := sched.Extract(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := sch.Drains(); got != c.want {
			t.Errorf("%s: Drains() = %v, want %v", c.name, got, c.want)
		}
		if ref := referenceDrains(sch); ref != c.want {
			t.Errorf("%s: package-by-package firing drains = %v, want %v", c.name, ref, c.want)
		}
	}
}
