package automata

import (
	"errors"
	"fmt"

	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// ErrTooLarge marks a model whose product encoding would overflow the
// compact state layout; exact analysis is skipped for it and callers
// fall back to heuristics.
var ErrTooLarge = errors.New("automata: model too large for exact analysis")

// Encoding capacity limits: counters are packed as uint16, so the
// package and stage counts must fit, with headroom below the
// representable maximum. They also bound Check's greedy run: at most
// four steps per package, 2¹⁷ in all.
const (
	maxPackages = 1 << 15
	maxStages   = 1 << 14
	maxProcs    = 1 << 12
)

// Compile builds the product system for model m mapped onto plat:
// ScheduleOf on the pair's admission checks, then CompileSchedule.
// plat may be nil to check a bare application model: every process
// then shares one implicit segment and the package size falls back
// to the model's nominal (or 1 when unset) — deadlock is a property
// of the firing gates, not of the platform timing, so the verdict is
// meaningful either way.
func Compile(m *psdf.Model, plat *platform.Platform) (*System, error) {
	sch, err := ScheduleOf(sched.NewPair(m, plat))
	if err != nil {
		return nil, err
	}
	return CompileSchedule(m, plat, sch)
}

// ScheduleOf returns the schedule of an admitted pair. The pair's
// first failed check is returned as-is, so callers can tell broken
// models (skip silently — the structural analyzers own those findings)
// from oversized ones, refused with ErrTooLarge. Callers that can
// decide from the schedule alone (sched.Schedule.Drains) build no
// product at all.
func ScheduleOf(p *sched.Pair) (*sched.Schedule, error) {
	if err := p.Err(); err != nil {
		return nil, err
	}
	sch, err := p.Schedule()
	if err != nil {
		return nil, err
	}
	if t := sch.TotalPackages(); t > maxPackages {
		return nil, fmt.Errorf("%w: %d packages (max %d)", ErrTooLarge, t, maxPackages)
	}
	if n := sch.NumStages(); n > maxStages {
		return nil, fmt.Errorf("%w: %d stages (max %d)", ErrTooLarge, n, maxStages)
	}
	if n := p.Model.NumProcesses(); n > maxProcs {
		return nil, fmt.Errorf("%w: %d processes (max %d)", ErrTooLarge, n, maxProcs)
	}
	return sch, nil
}

// CompileSchedule builds the product system for m on plat from sch,
// the schedule ScheduleOf returned for the same pair; it neither
// validates nor extracts again.
func CompileSchedule(m *psdf.Model, plat *platform.Platform, sch *sched.Schedule) (*System, error) {
	procs := m.Processes()
	s := &System{
		sch:     sch,
		procs:   procs,
		procIdx: make(map[psdf.ProcessID]int, len(procs)),
		segOf:   make([]int, len(procs)),
	}
	for i, p := range procs {
		s.procIdx[p] = i
		if plat != nil {
			s.segOf[i] = plat.SegmentOf(p)
		} else {
			s.segOf[i] = 1
		}
	}

	// Emission programs: the flows in canonical order, one entry per
	// package, each gated by the schedule's firing gate.
	s.programs = make([][]entry, len(procs))
	for i, f := range sch.Flows() {
		pi, ok := s.procIdx[f.Source]
		if !ok {
			return nil, fmt.Errorf("automata: flow %v source not a model process", f)
		}
		id := sched.FlowID(i)
		for pkg := 1; pkg <= sch.Packages(id); pkg++ {
			s.programs[pi] = append(s.programs[pi], entry{Flow: id, Pkg: pkg, Need: sch.Need(id, pkg)})
		}
	}
	for i := range procs {
		if len(s.programs[i]) > 0 {
			s.emitters = append(s.emitters, i)
		}
	}

	s.numStages = sch.NumStages()
	return s, nil
}
