package sched_test

import (
	"path/filepath"
	"testing"

	"segbus/internal/conform"
	"segbus/internal/dsl"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// referenceNeeds is the brute-force firing-gate construction, one
// entry per package: walk the flows in canonical order, count every
// package a process emits on one order (k), and gate it on the inputs
// of earlier orders plus the proportional same-order share
// ceil(k·is/os). needs[id][pkg-1] is the gate of package pkg of flow
// id.
func referenceNeeds(sch *sched.Schedule) [][]int {
	flows := sch.Flows()
	type procOrder struct {
		p     psdf.ProcessID
		order int
	}
	in := func(p psdf.ProcessID, keep func(order int) bool) int {
		n := 0
		for i, f := range flows {
			if f.Target == p && keep(f.Order) {
				n += sch.Packages(sched.FlowID(i))
			}
		}
		return n
	}
	outSame := make(map[procOrder]int)
	for i, f := range flows {
		outSame[procOrder{f.Source, f.Order}] += sch.Packages(sched.FlowID(i))
	}
	kSame := make(map[procOrder]int)
	needs := make([][]int, len(flows))
	for i, f := range flows {
		key := procOrder{f.Source, f.Order}
		ib := in(f.Source, func(o int) bool { return o < f.Order })
		is := in(f.Source, func(o int) bool { return o == f.Order })
		os := outSame[key]
		for pkg := 1; pkg <= sch.Packages(sched.FlowID(i)); pkg++ {
			kSame[key]++
			k := kSame[key]
			need := ib
			if is > 0 && os > 0 {
				need = ib + (k*is+os-1)/os
			}
			needs[i] = append(needs[i], need)
		}
	}
	return needs
}

// TestNeedMatchesPerPackageReference holds the closed-form gate to the
// per-package construction on every package of the scenario corpus
// (deadlocking models included) and of 200 conform-generated models,
// at package sizes 1, 7, the model's nominal size and 576. It also
// checks the per-stage package totals against the stage member flows.
func TestNeedMatchesPerPackageReference(t *testing.T) {
	var corpus []*dsl.Document
	for _, dir := range []string{"", "deadlock"} {
		docs, err := conform.LoadCorpusDir(filepath.Join("..", "..", "testdata", "scenarios", dir))
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, docs...)
	}
	if len(corpus) < 8 {
		t.Fatalf("scenario corpus has %d models, want at least 8", len(corpus))
	}
	models := make([]*psdf.Model, 0, len(corpus)+200)
	for _, doc := range corpus {
		models = append(models, doc.Model)
	}
	g := conform.NewGenerator(1, corpus)
	for i := 0; i < 200; i++ {
		models = append(models, g.Next().Doc.Model)
	}

	checked := 0
	for _, m := range models {
		for _, s := range []int{1, 7, m.NominalPackageSize(), 576} {
			if s <= 0 {
				continue
			}
			sch, err := sched.Extract(m, s)
			if err != nil {
				t.Fatal(err)
			}
			for id, needs := range referenceNeeds(sch) {
				for pkg, want := range needs {
					if got := sch.Need(sched.FlowID(id), pkg+1); got != want {
						t.Fatalf("%s s=%d: Need(%v, %d) = %d, want %d",
							m.Name(), s, sch.Flow(sched.FlowID(id)), pkg+1, got, want)
					}
					checked++
				}
			}
			for si, st := range sch.Stages() {
				want := 0
				for _, id := range st.Flows {
					want += sch.Packages(id)
				}
				if got := sch.StagePackages(si); got != want {
					t.Fatalf("%s s=%d: StagePackages(%d) = %d, want %d", m.Name(), s, si, got, want)
				}
			}
		}
	}
	t.Logf("%d models, %d package gates checked", len(models), checked)
}
