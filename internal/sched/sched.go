// Package sched extracts the application schedule from a PSDF model.
//
// The paper's emulator derives the sequencing of processing and
// transfers from the PSDF ordering numbers and implements it within
// the arbiters (section 3.3, first consideration). This package
// performs that extraction as a pure computation and is the single
// owner of the resulting rules:
//
//   - flows are grouped into stages by ordering number T; stage T
//     becomes active only when every flow of every earlier stage has
//     completed, and all flows of an active stage may run
//     concurrently (section 3.1 on equal ordering numbers);
//   - within a process, output packages are gated on input
//     availability by a per-order proportional packet-SDF firing
//     rule: the k-th package a process emits on order T (k counted
//     across all of its order-T flows, in canonical order) waits for
//     the ib packages it receives on earlier orders plus
//     ceil(k·is/os), where is and os are the packages it receives
//     respectively emits on order T (see Schedule.Need).
//
// The emulator and the automata checker both read the gate from the
// Schedule, so the timed and the exact semantics cannot drift apart.
package sched

import (
	"fmt"

	"segbus/internal/psdf"
)

// FlowID indexes a flow within the schedule's canonical flow order
// (Model.Flows() order: sorted by ordering number, then source, then
// target). It is stable for a given model and the key used by the
// emulator's bookkeeping.
type FlowID int

// Stage is the set of flows sharing one ordering number. All flows of
// a stage may execute concurrently once the stage is active.
type Stage struct {
	Order int      // the shared ordering number T
	Flows []FlowID // member flows, in canonical order
}

// Schedule is the extracted application schedule: the canonical flow
// list, its partition into stages, per-flow package counts for the
// configured package size, and the per-flow firing-gate terms.
type Schedule struct {
	PackageSize int
	flows       []psdf.Flow
	info        []flowInfo // per FlowID
	stages      []Stage    // ascending by Order
	stagePkgs   []int      // per stage, total packages
}

// flowInfo is what Extract records for one flow: its package count,
// its stage index and the terms of its firing gate (see Need) — the
// packages its source receives on earlier orders (ib) and on the
// flow's own order (is), the packages the source emits on that order
// (os), and the source's packages on earlier flows of that order
// (kBase).
type flowInfo struct {
	packages, stage   int
	ib, is, os, kBase int
}

// Extract builds the schedule of model m for the given package size
// in time and memory linear in the flow count. The model should have
// been validated first; Extract itself only requires a positive
// package size.
func Extract(m *psdf.Model, packageSize int) (*Schedule, error) {
	if packageSize <= 0 {
		return nil, fmt.Errorf("sched: non-positive package size %d", packageSize)
	}
	// The canonical order sorts by order, then source: a stage is a
	// contiguous run of flows, and within it so is each source's
	// same-order output.
	flows := m.Flows()
	n := len(flows)
	nStages := 0
	for i := range flows {
		if i == 0 || flows[i].Order != flows[i-1].Order {
			nStages++
		}
	}
	s := &Schedule{
		PackageSize: packageSize,
		flows:       flows,
		info:        make([]flowInfo, n),
		stages:      make([]Stage, 0, nStages),
		stagePkgs:   make([]int, 0, nStages),
	}
	ids := make([]FlowID, n)
	// Per process: packages received on earlier orders and on the
	// current one.
	in := make(map[psdf.ProcessID][2]int, m.NumProcesses())
	for lo := 0; lo < n; {
		order, total := flows[lo].Order, 0
		hi := lo
		for ; hi < n && flows[hi].Order == order; hi++ {
			pk := flows[hi].Packages(packageSize)
			ids[hi] = FlowID(hi)
			s.info[hi] = flowInfo{packages: pk, stage: len(s.stages)}
			total += pk
			c := in[flows[hi].Target]
			in[flows[hi].Target] = [2]int{c[0], c[1] + pk}
		}
		s.stages = append(s.stages, Stage{Order: order, Flows: ids[lo:hi:hi]})
		s.stagePkgs = append(s.stagePkgs, total)
		for a := lo; a < hi; {
			src, os := flows[a].Source, 0
			b := a
			for ; b < hi && flows[b].Source == src; b++ {
				os += s.info[b].packages
			}
			c := in[src]
			for k := 0; a < b; a++ {
				fi := &s.info[a]
				fi.ib, fi.is, fi.os, fi.kBase = c[0], c[1], os, k
				k += fi.packages
			}
		}
		for _, f := range flows[lo:hi] {
			c := in[f.Target]
			in[f.Target] = [2]int{c[0] + c[1], 0}
		}
		lo = hi
	}
	return s, nil
}

// Flows returns the canonical flow list. The slice must not be
// mutated.
func (s *Schedule) Flows() []psdf.Flow { return s.flows }

// Flow returns the flow with the given id.
func (s *Schedule) Flow(id FlowID) psdf.Flow { return s.flows[id] }

// NumFlows returns the number of flows in the schedule.
func (s *Schedule) NumFlows() int { return len(s.flows) }

// Packages returns the number of packages flow id transfers.
func (s *Schedule) Packages(id FlowID) int { return s.info[id].packages }

// TotalPackages returns the total number of package transfers in the
// schedule.
func (s *Schedule) TotalPackages() int {
	n := 0
	for _, p := range s.stagePkgs {
		n += p
	}
	return n
}

// Stages returns the ordered stage list. The slice must not be
// mutated.
func (s *Schedule) Stages() []Stage { return s.stages }

// NumStages returns the number of stages.
func (s *Schedule) NumStages() int { return len(s.stages) }

// Need returns the firing gate of package pkg (1-based) of flow id:
// how many input packages the flow's source must have received before
// it may start that emission. With k the package's rank among the
// source's packages on the flow's order, it is ib + ceil(k·is/os)
// (ib alone when the source receives or emits nothing on that order).
func (s *Schedule) Need(id FlowID, pkg int) int {
	fi := &s.info[id]
	if fi.is == 0 || fi.os == 0 {
		return fi.ib
	}
	return fi.ib + ((fi.kBase+pkg)*fi.is+fi.os-1)/fi.os
}

// StageOf returns the index (into Stages) of the stage containing flow
// id.
func (s *Schedule) StageOf(id FlowID) int { return s.info[id].stage }

// StagePackages returns the total number of packages the flows of
// stage si (an index into Stages) transfer.
func (s *Schedule) StagePackages(si int) int { return s.stagePkgs[si] }

// Validate cross-checks the schedule's internal consistency. It is
// used by property tests and returns a descriptive error on the first
// inconsistency found.
func (s *Schedule) Validate() error {
	seen := make(map[FlowID]bool)
	prevOrder := -1 << 62
	for _, st := range s.stages {
		if st.Order <= prevOrder {
			return fmt.Errorf("sched: stage orders not strictly increasing (%d after %d)", st.Order, prevOrder)
		}
		prevOrder = st.Order
		if len(st.Flows) == 0 {
			return fmt.Errorf("sched: empty stage with order %d", st.Order)
		}
		for _, id := range st.Flows {
			if int(id) < 0 || int(id) >= len(s.flows) {
				return fmt.Errorf("sched: stage %d references unknown flow %d", st.Order, id)
			}
			if s.flows[id].Order != st.Order {
				return fmt.Errorf("sched: flow %v filed under stage %d", s.flows[id], st.Order)
			}
			if seen[id] {
				return fmt.Errorf("sched: flow %d appears in two stages", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != len(s.flows) {
		return fmt.Errorf("sched: %d flows staged, model has %d", len(seen), len(s.flows))
	}
	return nil
}
