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
	"sort"

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

// Drains reports whether every stage of the schedule completes, that
// is whether every run of the firing gates delivers every package.
//
// Stages run one after another, so each is decided on its own, as the
// least fixpoint of its flows' emitted counts (SDF balance reasoning,
// Lee & Messerschmitt 1987). A source that has received r packages
// may emit every package of rank up to floor((r−ib)·os/is) on the
// order (all os of them once r ≥ ib when is or os is 0): the exact
// inverse of Need. That rank is split over the source's flows in
// canonical order through kBase. Starting from zero, a worklist
// re-evaluates only the sources whose received count grew, and a
// per-source cursor walks each flow once, so the work is
// O(flows + packages delivered). The gates are monotone and a package
// in flight is always delivered (bus arbitration orders transfers but
// never withholds one), so the counts alone decide: a stage completes
// iff its fixpoint emits StagePackages.
//
// The products in the rank are at most TotalPackages², which must
// therefore fit an int.
func (s *Schedule) Drains() bool {
	widest := 0
	for _, st := range s.stages {
		widest = max(widest, len(st.Flows))
	}
	groups := make([]drainGroup, 0, widest)
	tgt := make([]int, widest) // per stage flow: target's group, or -1
	work := make([]int, 0, widest)
	for si, st := range s.stages {
		// Extract numbers a stage's flows consecutively.
		lo := int(st.Flows[0])
		hi := lo + len(st.Flows)
		groups = groups[:0]
		for a := lo; a < hi; {
			b := a + 1
			for b < hi && s.flows[b].Source == s.flows[a].Source {
				b++
			}
			groups = append(groups, drainGroup{first: a, cur: a, queued: true})
			a = b
		}
		for f := lo; f < hi; f++ {
			tgt[f-lo] = s.groupOf(groups, s.flows[f].Target)
		}
		work = work[:0]
		for g := range groups {
			work = append(work, g)
		}
		emitted := 0
		for len(work) > 0 {
			g := &groups[work[len(work)-1]]
			work = work[:len(work)-1]
			g.queued = false
			fi := &s.info[g.first]
			rank := fi.os
			if fi.is > 0 {
				rank = g.got * fi.os / fi.is
			}
			for g.rank < rank {
				end := s.info[g.cur].kBase + s.info[g.cur].packages
				if end <= g.rank {
					g.cur++
					continue
				}
				upTo := min(rank, end)
				d := upTo - g.rank
				g.rank = upTo
				emitted += d
				if t := tgt[g.cur-lo]; t >= 0 {
					groups[t].got += d
					if !groups[t].queued {
						groups[t].queued = true
						work = append(work, t)
					}
				}
			}
		}
		if emitted != s.stagePkgs[si] {
			return false
		}
	}
	return true
}

// drainGroup is one source's state in a stage of Drains. The source's
// same-order flows are contiguous in canonical order, from first; got
// counts the packages it received on the order (r−ib), rank the
// packages it emitted on it, and cur is the flow holding the next one.
type drainGroup struct {
	first, cur, got, rank int
	queued                bool
}

// groupOf returns the index of p's group in groups, whose sources
// ascend as in canonical order, or -1 when p emits nothing there.
func (s *Schedule) groupOf(groups []drainGroup, p psdf.ProcessID) int {
	i := sort.Search(len(groups), func(h int) bool { return s.flows[groups[h].first].Source >= p })
	if i < len(groups) && s.flows[groups[i].first].Source == p {
		return i
	}
	return -1
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
