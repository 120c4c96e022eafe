// Package platform implements the structural model of the SegBus
// segmented-bus architecture: segments, functional units (FU), segment
// arbiters (SA), the central arbiter (CA) and the border units (BU)
// that connect neighbouring segments (section 2.1 of the paper and the
// element hierarchy of Figure 5).
//
// A Platform value is a pure description: it carries no behaviour.
// Behaviour lives in the emulator packages, which interpret a Platform
// together with a PSDF application model and an Allocation.
package platform

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"segbus/internal/psdf"
)

// Hz expresses a clock frequency in hertz.
type Hz float64

// Common frequency units.
const (
	KHz Hz = 1e3
	MHz Hz = 1e6
	GHz Hz = 1e9
)

// String renders the frequency the way the paper's reports do,
// e.g. "91.00MHz".
func (f Hz) String() string {
	switch {
	case f >= GHz:
		return fmt.Sprintf("%.2fGHz", float64(f)/1e9)
	case f >= MHz:
		return fmt.Sprintf("%.2fMHz", float64(f)/1e6)
	case f >= KHz:
		return fmt.Sprintf("%.2fkHz", float64(f)/1e3)
	}
	return fmt.Sprintf("%.2fHz", float64(f))
}

// PeriodPs returns the clock period in picoseconds, rounded to the
// nearest integer picosecond. All simulation time in this repository
// is integer picoseconds, following the paper's reports.
func (f Hz) PeriodPs() int64 {
	if f <= 0 {
		panic("platform: non-positive clock frequency")
	}
	return int64(1e12/float64(f) + 0.5)
}

// FUKind distinguishes the interface roles a functional unit exposes on
// its segment bus. A master initiates transfers; a slave only receives.
// One FU contains at least one master or one slave (Figure 5).
type FUKind int

// Functional-unit kinds.
const (
	MasterSlave FUKind = iota // both initiates and receives (default)
	MasterOnly
	SlaveOnly
)

// String implements fmt.Stringer.
func (k FUKind) String() string {
	switch k {
	case MasterSlave:
		return "master+slave"
	case MasterOnly:
		return "master"
	case SlaveOnly:
		return "slave"
	}
	return fmt.Sprintf("FUKind(%d)", int(k))
}

// FU is a functional unit: the platform-side device an application
// process is realised on. In this methodology the mapping is
// one-to-one, so the FU carries the process identifier it hosts.
type FU struct {
	Process psdf.ProcessID // hosted application process
	Kind    FUKind         // bus interface role
}

// Segment is one bus segment: a set of FUs arbitrated by a single
// segment arbiter, clocked in its own clock domain.
type Segment struct {
	Index int  // 1-based segment id, as in the paper ("Segment 1")
	Clock Hz   // segment clock domain frequency
	FUs   []FU // devices attached to the segment, in attachment order
}

// Name returns the conventional segment name, e.g. "Segment 2".
func (s *Segment) Name() string { return "Segment " + strconv.Itoa(s.Index) }

// SAName returns the conventional name of the segment's arbiter,
// e.g. "SA2".
func (s *Segment) SAName() string { return "SA" + strconv.Itoa(s.Index) }

// Hosts reports whether the segment hosts the given process.
func (s *Segment) Hosts(p psdf.ProcessID) bool {
	for _, fu := range s.FUs {
		if fu.Process == p {
			return true
		}
	}
	return false
}

// BU identifies a border unit between two adjacent segments of a
// linear topology. Left and Right are the 1-based indices of the
// segments it bridges, with Left+1 == Right.
type BU struct {
	Left, Right int
}

// Name returns the conventional border unit name, e.g. "BU12" for the
// unit between segments 1 and 2.
func (b BU) Name() string { return fmt.Sprintf("BU%d%d", b.Left, b.Right) }

// Entered returns the segment a package crossing the unit enters: its
// right side on a rightward route, its left side otherwise.
func (b BU) Entered(rightward bool) int {
	if rightward {
		return b.Right
	}
	return b.Left
}

// Platform is a complete SegBus platform instance: an ordered list of
// segments in a linear topology, one central arbiter, and one border
// unit between each pair of adjacent segments. PackageSize is the
// number of data items per package (s in the paper).
type Platform struct {
	Name        string
	Segments    []*Segment
	CAClock     Hz  // central arbiter clock domain
	PackageSize int // s: data items per package

	// HeaderTicks is the per-package bus protocol overhead charged on
	// every package transfer in the granting segment's clock domain:
	// the request/address/header phases that precede the data burst.
	// It is part of the platform protocol (charged by estimation and
	// refined models alike), unlike the Overheads the estimation
	// model skips.
	HeaderTicks int

	// CAHopTicks is the central arbiter's circuit set-up cost per
	// segment hop of an inter-segment transfer (CA clock domain): the
	// CA identifies the target segment and connects each bridge of
	// the chain before granting the initiating master (section 2.1).
	// Charged per package by estimation and refined models alike.
	CAHopTicks int
}

// New returns a platform with the given name, CA clock and package
// size and no segments yet. Add segments with AddSegment.
func New(name string, caClock Hz, packageSize int) *Platform {
	return &Platform{Name: name, CAClock: caClock, PackageSize: packageSize}
}

// AddSegment appends a segment clocked at clock hosting the given
// processes (each realised as a default master+slave FU) and returns
// it. Segments are indexed 1..n in insertion order, forming the linear
// topology left to right.
func (p *Platform) AddSegment(clock Hz, processes ...psdf.ProcessID) *Segment {
	s := &Segment{Index: len(p.Segments) + 1, Clock: clock}
	for _, proc := range processes {
		s.FUs = append(s.FUs, FU{Process: proc, Kind: MasterSlave})
	}
	p.Segments = append(p.Segments, s)
	return s
}

// NumSegments returns the number of segments.
func (p *Platform) NumSegments() int { return len(p.Segments) }

// Segment returns the 1-based segment with the given index, or nil if
// it does not exist.
func (p *Platform) Segment(index int) *Segment {
	if index < 1 || index > len(p.Segments) {
		return nil
	}
	return p.Segments[index-1]
}

// BUs returns the border units of the linear topology, left to right:
// BU12, BU23, ... An n-segment platform has n-1 border units.
func (p *Platform) BUs() []BU {
	if len(p.Segments) < 2 {
		return nil
	}
	out := make([]BU, 0, len(p.Segments)-1)
	for i := 1; i < len(p.Segments); i++ {
		out = append(out, BU{Left: i, Right: i + 1})
	}
	return out
}

// SegmentOf returns the 1-based index of the segment hosting process
// proc, or 0 if no segment hosts it.
func (p *Platform) SegmentOf(proc psdf.ProcessID) int {
	for _, s := range p.Segments {
		if s.Hosts(proc) {
			return s.Index
		}
	}
	return 0
}

// FlowSegments returns the segment hosting flow f's source and the one
// its packages are delivered on: the target's, or the source's own for
// a flow to the system output. ok is false when either is not a
// segment of the platform (an unhosted endpoint), the pairs Route
// refuses; a pair that passes ValidateMapping is always ok. Every
// static consumer (bounds, congestion, power, codegen) routes its
// flows through here.
func (p *Platform) FlowSegments(f psdf.Flow) (src, dst int, ok bool) {
	src = p.SegmentOf(f.Source)
	dst = src
	if f.Target != psdf.SystemOutput {
		dst = p.SegmentOf(f.Target)
	}
	n := len(p.Segments)
	return src, dst, src >= 1 && src <= n && dst >= 1 && dst <= n
}

// Processes returns all hosted processes in ascending order.
func (p *Platform) Processes() []psdf.ProcessID {
	var out []psdf.ProcessID
	for _, s := range p.Segments {
		for _, fu := range s.FUs {
			out = append(out, fu.Process)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Route returns the border units a package crosses travelling from
// segment src to segment dst (1-based), in crossing order, together
// with direction: rightward is true when src < dst. An intra-segment
// transfer returns a nil slice.
func (p *Platform) Route(src, dst int) (bus []BU, rightward bool) {
	if src < 1 || src > len(p.Segments) || dst < 1 || dst > len(p.Segments) {
		panic(fmt.Sprintf("platform: route %d->%d out of range [1,%d]", src, dst, len(p.Segments)))
	}
	if src == dst {
		return nil, false
	}
	if src < dst {
		for i := src; i < dst; i++ {
			bus = append(bus, BU{Left: i, Right: i + 1})
		}
		return bus, true
	}
	for i := src; i > dst; i-- {
		bus = append(bus, BU{Left: i - 1, Right: i})
	}
	return bus, false
}

// Hops returns the number of border-unit crossings between segments
// src and dst (zero for intra-segment transfers).
func (p *Platform) Hops(src, dst int) int {
	if src < dst {
		return dst - src
	}
	return src - dst
}

// Clone returns a deep copy of the platform.
func (p *Platform) Clone() *Platform {
	c := New(p.Name, p.CAClock, p.PackageSize)
	c.HeaderTicks = p.HeaderTicks
	c.CAHopTicks = p.CAHopTicks
	for _, s := range p.Segments {
		cs := &Segment{Index: s.Index, Clock: s.Clock, FUs: append([]FU(nil), s.FUs...)}
		c.Segments = append(c.Segments, cs)
	}
	return c
}

// MoveProcess relocates process proc to the segment with the given
// 1-based index, preserving its FU kind. It returns an error if the
// process is not hosted or the segment does not exist. Used by the
// design-space exploration experiments (e.g. moving P9 from segment 1
// to segment 3 in section 4).
func (p *Platform) MoveProcess(proc psdf.ProcessID, toSegment int) error {
	dst := p.Segment(toSegment)
	if dst == nil {
		return fmt.Errorf("platform: no segment %d", toSegment)
	}
	for _, s := range p.Segments {
		for i, fu := range s.FUs {
			if fu.Process == proc {
				if s == dst {
					return nil
				}
				s.FUs = append(s.FUs[:i], s.FUs[i+1:]...)
				dst.FUs = append(dst.FUs, fu)
				return nil
			}
		}
	}
	return fmt.Errorf("platform: process %s is not hosted", proc)
}

// String renders the allocation in the paper's Figure 9 style, with
// segment borders marked as "||": "0 1 2 3 8 9 10 || 5 6 7 ... || 4".
func (p *Platform) String() string {
	nfu := 0
	for _, seg := range p.Segments {
		nfu += len(seg.FUs)
	}
	var b strings.Builder
	b.Grow(4*nfu + 4*len(p.Segments))
	for i, seg := range p.Segments {
		if i > 0 {
			b.WriteString(" || ")
		}
		for j, fu := range seg.FUs {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(int(fu.Process)))
		}
	}
	return b.String()
}
