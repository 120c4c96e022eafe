package platform

import (
	"fmt"

	"segbus/internal/psdf"
)

// ConstraintViolation reports one breach of the platform's structural
// constraints. Element names the offending platform element in the
// paper's naming convention ("Segment 2", "CA", "BU12", "P9"), so a
// front end can highlight it, as the DSL tool does on OCL violations.
// Code is the stable SB0xx diagnostic code of the violated constraint
// (see internal/analyze for the full table).
type ConstraintViolation struct {
	Code    string
	Element string
	Message string
}

// Error implements the error interface.
func (v *ConstraintViolation) Error() string {
	if v.Code != "" {
		return fmt.Sprintf("platform: %s: %s: %s", v.Element, v.Code, v.Message)
	}
	return fmt.Sprintf("platform: %s: %s", v.Element, v.Message)
}

// Stable diagnostic codes of the platform structural constraints.
const (
	CodeNoSegments      = "SB020" // platform has no segments
	CodeBadPackageSize  = "SB021" // non-positive package size
	CodeBadCAClock      = "SB022" // non-positive CA clock frequency
	CodeBadHeaderTicks  = "SB023" // negative header tick count
	CodeBadCAHopTicks   = "SB024" // negative CA hop tick count
	CodeBadSegmentIndex = "SB025" // segment index out of sequence
	CodeBadSegmentClock = "SB026" // non-positive segment clock
	CodeEmptySegment    = "SB027" // segment hosts no functional unit
	CodeDoubleHosted    = "SB028" // process hosted by two segments
	CodeUnmapped        = "SB029" // application process not mapped
	CodeStrayProcess    = "SB030" // platform hosts a stray process
	CodeNoMaster        = "SB031" // flow source FU lacks master side
	CodeNoSlave         = "SB032" // flow target FU lacks slave side
)

// ConstraintViolations aggregates every violation from a validation
// pass.
type ConstraintViolations []*ConstraintViolation

// Error implements the error interface.
func (vs ConstraintViolations) Error() string {
	switch len(vs) {
	case 0:
		return "platform: no constraint violations"
	case 1:
		return vs[0].Error()
	}
	s := vs[0].Error()
	for _, v := range vs[1:] {
		s += "; " + v.Error()
	}
	return s
}

// Validate checks the platform against the structural constraints of
// the SegBus DSL (section 2.2 and Figure 5):
//
//   - the platform has at least one segment;
//   - the package size is positive;
//   - the CA and every segment have a positive clock frequency;
//   - every segment hosts at least one FU;
//   - segment indices are consecutive, starting at 1 (linear
//     topology);
//   - no process is hosted by more than one FU.
//
// A nil return means the platform is structurally valid.
func (p *Platform) Validate() error {
	var vs ConstraintViolations
	add := func(code, element, format string, args ...interface{}) {
		vs = append(vs, &ConstraintViolation{Code: code, Element: element, Message: fmt.Sprintf(format, args...)})
	}

	if len(p.Segments) == 0 {
		add(CodeNoSegments, p.Name, "platform has no segments")
	}
	if p.PackageSize <= 0 {
		add(CodeBadPackageSize, p.Name, "non-positive package size %d", p.PackageSize)
	}
	if p.CAClock <= 0 {
		add(CodeBadCAClock, "CA", "non-positive clock frequency %v", float64(p.CAClock))
	}
	if p.HeaderTicks < 0 {
		add(CodeBadHeaderTicks, p.Name, "negative header tick count %d", p.HeaderTicks)
	}
	if p.CAHopTicks < 0 {
		add(CodeBadCAHopTicks, p.Name, "negative CA hop tick count %d", p.CAHopTicks)
	}

	hostedBy := make(map[psdf.ProcessID]*Segment)
	for i, s := range p.Segments {
		if s.Index != i+1 {
			add(CodeBadSegmentIndex, s.Name(), "segment index %d out of sequence (want %d)", s.Index, i+1)
		}
		if s.Clock <= 0 {
			add(CodeBadSegmentClock, s.Name(), "non-positive clock frequency %v", float64(s.Clock))
		}
		if len(s.FUs) == 0 {
			add(CodeEmptySegment, s.Name(), "segment hosts no functional unit (at least one FU required)")
		}
		for _, fu := range s.FUs {
			if prev, ok := hostedBy[fu.Process]; ok {
				add(CodeDoubleHosted, fu.Process.String(), "hosted by both %s and %s", prev.Name(), s.Name())
				continue
			}
			hostedBy[fu.Process] = s
		}
	}

	if len(vs) == 0 {
		return nil
	}
	return vs
}

// ValidateMapping checks that the platform hosts exactly the processes
// of the application model: every model process is placed on exactly
// one segment and the platform hosts no stray processes. It returns a
// ConstraintViolations error listing every mismatch, or nil.
func (p *Platform) ValidateMapping(m *psdf.Model) error {
	var vs ConstraintViolations
	hosted := make(map[psdf.ProcessID]bool)
	for _, proc := range p.Processes() {
		hosted[proc] = true
	}
	want := make(map[psdf.ProcessID]bool)
	for _, proc := range m.Processes() {
		want[proc] = true
		if !hosted[proc] {
			vs = append(vs, &ConstraintViolation{
				Code:    CodeUnmapped,
				Element: proc.String(),
				Message: "application process is not mapped to any segment",
			})
		}
	}
	for _, proc := range p.Processes() {
		if !want[proc] {
			vs = append(vs, &ConstraintViolation{
				Code:    CodeStrayProcess,
				Element: proc.String(),
				Message: "platform hosts a process that is not part of the application",
			})
		}
	}
	if len(vs) == 0 {
		return nil
	}
	return vs
}

// MasterCapable reports whether the FU hosting proc may initiate
// transfers. Unknown processes report false.
func (p *Platform) MasterCapable(proc psdf.ProcessID) bool {
	for _, s := range p.Segments {
		for _, fu := range s.FUs {
			if fu.Process == proc {
				return fu.Kind != SlaveOnly
			}
		}
	}
	return false
}

// SlaveCapable reports whether the FU hosting proc may receive
// transfers. Unknown processes report false.
func (p *Platform) SlaveCapable(proc psdf.ProcessID) bool {
	for _, s := range p.Segments {
		for _, fu := range s.FUs {
			if fu.Process == proc {
				return fu.Kind != MasterOnly
			}
		}
	}
	return false
}

// ValidateRoles checks that FU interface kinds are compatible with the
// application's flows: every flow source must be master-capable and
// every flow target slave-capable.
func (p *Platform) ValidateRoles(m *psdf.Model) error {
	var vs ConstraintViolations
	for _, f := range m.Flows() {
		if !p.MasterCapable(f.Source) {
			vs = append(vs, &ConstraintViolation{
				Code:    CodeNoMaster,
				Element: f.Source.String(),
				Message: fmt.Sprintf("emits flow %s but its FU has no master interface", f),
			})
		}
		if f.Target != psdf.SystemOutput && !p.SlaveCapable(f.Target) {
			vs = append(vs, &ConstraintViolation{
				Code:    CodeNoSlave,
				Element: f.Target.String(),
				Message: fmt.Sprintf("receives flow %s but its FU has no slave interface", f),
			})
		}
	}
	if len(vs) == 0 {
		return nil
	}
	return vs
}
