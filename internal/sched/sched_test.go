package sched

import (
	"testing"

	"segbus/internal/psdf"
)

func chain() *psdf.Model {
	m := psdf.NewModel("chain")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 72, Order: 1, Ticks: 10})
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 36, Order: 2, Ticks: 20})
	return m
}

func TestExtractBasics(t *testing.T) {
	s, err := Extract(chain(), 36)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFlows() != 2 {
		t.Fatalf("NumFlows() = %d", s.NumFlows())
	}
	if s.NumStages() != 2 {
		t.Fatalf("NumStages() = %d", s.NumStages())
	}
	if got := s.Packages(0); got != 2 {
		t.Errorf("Packages(0) = %d, want 2", got)
	}
	if got := s.Packages(1); got != 1 {
		t.Errorf("Packages(1) = %d, want 1", got)
	}
	if got := s.TotalPackages(); got != 3 {
		t.Errorf("TotalPackages() = %d, want 3", got)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate(): %v", err)
	}
}

func TestExtractRejectsBadPackageSize(t *testing.T) {
	if _, err := Extract(chain(), 0); err == nil {
		t.Error("Extract with package size 0 succeeded")
	}
	if _, err := Extract(chain(), -5); err == nil {
		t.Error("Extract with negative package size succeeded")
	}
}

func TestStagesGroupByOrder(t *testing.T) {
	m := psdf.NewModel("grouped")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1})
	m.AddFlow(psdf.Flow{Source: 0, Target: 2, Items: 36, Order: 1})
	m.AddFlow(psdf.Flow{Source: 1, Target: 3, Items: 36, Order: 5})
	m.AddFlow(psdf.Flow{Source: 2, Target: 3, Items: 36, Order: 5})
	s, err := Extract(m, 36)
	if err != nil {
		t.Fatal(err)
	}
	stages := s.Stages()
	if len(stages) != 2 {
		t.Fatalf("stages = %v", stages)
	}
	if stages[0].Order != 1 || len(stages[0].Flows) != 2 {
		t.Errorf("stage 0 = %+v", stages[0])
	}
	if stages[1].Order != 5 || len(stages[1].Flows) != 2 {
		t.Errorf("stage 1 = %+v", stages[1])
	}
	for _, st := range stages {
		for _, id := range st.Flows {
			if got := s.StageOf(id); stages[got].Order != st.Order {
				t.Errorf("StageOf(%d) inconsistent", id)
			}
		}
	}
}

func TestScheduleValidateCatchesCorruption(t *testing.T) {
	s, err := Extract(chain(), 36)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: swap the stage orders.
	s.stages[0].Order, s.stages[1].Order = s.stages[1].Order, s.stages[0].Order
	if err := s.Validate(); err == nil {
		t.Error("Validate() accepted corrupted stage order")
	}
}

func TestScheduleFlowsCanonicalOrder(t *testing.T) {
	m := psdf.NewModel("canon")
	m.AddFlow(psdf.Flow{Source: 3, Target: 4, Items: 36, Order: 2})
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1})
	m.AddFlow(psdf.Flow{Source: 1, Target: 3, Items: 36, Order: 1})
	s, err := Extract(m, 36)
	if err != nil {
		t.Fatal(err)
	}
	fs := s.Flows()
	if fs[0].Source != 0 || fs[1].Source != 1 || fs[2].Source != 3 {
		t.Errorf("canonical order violated: %v", fs)
	}
	for i := range fs {
		if s.Flow(FlowID(i)) != fs[i] {
			t.Errorf("Flow(%d) mismatch", i)
		}
	}
}

func TestExtractPartialFinalPackage(t *testing.T) {
	m := psdf.NewModel("ragged")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 37, Order: 1})
	s, err := Extract(m, 36)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Packages(0); got != 2 {
		t.Errorf("37 items in 36-item packages = %d, want 2", got)
	}
}
