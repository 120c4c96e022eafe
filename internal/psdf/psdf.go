// Package psdf implements the Packet Synchronous Data Flow (PSDF)
// application model of the SegBus design methodology.
//
// A PSDF model is a set of processes connected by packet flows. Data is
// organised in data items which are grouped into packages of a
// configurable size during execution. Each flow is a tuple (Pt, D, T, C):
//
//   - Pt — the target process of the flow's transactions;
//   - D  — the number of data items emitted by the source towards Pt;
//   - T  — a relative ordering number among the flows of the system;
//   - C  — the number of clock ticks the source consumes before sending
//     one package.
//
// Flows sharing the same ordering number may execute concurrently; a
// flow ordered after another may not start before the earlier one has
// completed. The model mirrors section 3.1 of the paper and is the
// single source of truth for the application schedule, the
// communication matrix and the emulator's functional-unit programs.
package psdf

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// ProcessID identifies an application process (P0, P1, ...). The zero
// value is a valid identifier (process P0).
type ProcessID int

// String returns the conventional process name, e.g. "P3".
func (p ProcessID) String() string { return fmt.Sprintf("P%d", int(p)) }

// SystemOutput is the pseudo-target used by flows that leave the
// system (towards the platform output) rather than feed another
// process. The paper's example does not use it, but the PSDF
// definition allows transactions "towards the system output".
const SystemOutput ProcessID = -1

// Flow is one packet flow of a PSDF model: Items data items sent by
// Source towards Target, with relative ordering number Order and
// per-package processing cost Ticks.
type Flow struct {
	Source ProcessID // emitting process
	Target ProcessID // Pt: receiving process (or SystemOutput)
	Items  int       // D: number of data items carried by the flow
	Order  int       // T: relative ordering number among all flows
	Ticks  int       // C: source clock ticks consumed per package sent
}

// Packages returns the number of packages the flow is split into for
// package size s (ceil(D/s)). The paper's definition uses D/s with D a
// multiple of s; ragged tails are rounded up so that every data item is
// carried.
func (f Flow) Packages(s int) int {
	if s <= 0 {
		panic("psdf: package size must be positive")
	}
	if f.Items <= 0 {
		return 0
	}
	return (f.Items + s - 1) / s
}

// PackageItems returns the number of data items the pkg-th (1-based)
// package carries at package size s: s, except for a possibly partial
// final package, and zero past the end of the flow.
func (f Flow) PackageItems(s, pkg int) int {
	return max(0, min(s, f.Items-(pkg-1)*s))
}

// PackageTicks returns the processing cost of the pkg-th (1-based)
// package at package size s: C, scaled by the package's item count
// relative to the model's nominal package size when one is declared
// (nominal > 0) — work is a property of the data, not of the
// packaging.
func (f Flow) PackageTicks(s, nominal, pkg int) int64 {
	c := int64(f.Ticks)
	if nominal <= 0 {
		return c
	}
	return (c*int64(f.PackageItems(s, pkg)) + int64(nominal) - 1) / int64(nominal)
}

// Name renders the flow in the encoded form used by the generated XML
// schemas, e.g. "P1_576_1_250" for a flow targeting P1 with 576 data
// items, ordering number 1 and 250 ticks per package.
func (f Flow) Name() string {
	return fmt.Sprintf("%s_%d_%d_%d", f.Target, f.Items, f.Order, f.Ticks)
}

// String implements fmt.Stringer with a human-oriented rendering.
func (f Flow) String() string {
	return fmt.Sprintf("%s->%s{D=%d T=%d C=%d}", f.Source, f.Target, f.Items, f.Order, f.Ticks)
}

// systemOutputName is how Name renders the SystemOutput target.
const systemOutputName = "P-1"

// ParseFlowName decodes the XML flow encoding produced by the M2T
// transformation ("P1_576_1_250") into a Flow. The source process is
// not part of the encoding (it is the enclosing XML element) and must
// be supplied by the caller. The target may be the system output,
// which Name renders "P-1" ("P-1_36_4_10"); ParseProcessName refuses
// that name, since no process can have it.
func ParseFlowName(source ProcessID, name string) (Flow, error) {
	var parts [4]string
	rest := name
	for i := range parts[:3] {
		var ok bool
		if parts[i], rest, ok = strings.Cut(rest, "_"); !ok {
			return Flow{}, fmt.Errorf("psdf: flow name %q: want 4 '_'-separated fields, got %d", name, i+1)
		}
	}
	if parts[3] = rest; strings.Contains(rest, "_") {
		return Flow{}, fmt.Errorf("psdf: flow name %q: want 4 '_'-separated fields, got %d", name, 4+strings.Count(rest, "_"))
	}
	target := SystemOutput
	if parts[0] != systemOutputName {
		var err error
		if target, err = ParseProcessName(parts[0]); err != nil {
			return Flow{}, fmt.Errorf("psdf: flow name %q: %v", name, err)
		}
	}
	items, ok := canonicalInt(parts[1])
	if !ok {
		return Flow{}, fmt.Errorf("psdf: flow name %q: bad item count %q", name, parts[1])
	}
	order, ok := canonicalInt(parts[2])
	if !ok {
		return Flow{}, fmt.Errorf("psdf: flow name %q: bad ordering number %q", name, parts[2])
	}
	ticks, ok := canonicalInt(parts[3])
	if !ok {
		return Flow{}, fmt.Errorf("psdf: flow name %q: bad tick count %q", name, parts[3])
	}
	return Flow{Source: source, Target: target, Items: items, Order: order, Ticks: ticks}, nil
}

// canonicalInt parses s as a decimal int written the way Name renders
// one: "+5", "05", "-0" and "5x" are refused, "-5" is accepted.
func canonicalInt(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	if err != nil || s[0] == '+' {
		return 0, false
	}
	digits := strings.TrimPrefix(s, "-")
	return n, digits[0] != '0' || s == "0"
}

// ParseProcessName decodes a conventional process name ("P0", "P13")
// into its ProcessID. Case is significant; only the canonical form is
// accepted.
func ParseProcessName(name string) (ProcessID, error) {
	if len(name) < 2 || name[0] != 'P' {
		return 0, fmt.Errorf("bad process name %q", name)
	}
	n := 0
	for i := 1; i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad process name %q", name)
		}
		n = n*10 + int(c-'0')
		if n > 1<<20 {
			return 0, fmt.Errorf("process name %q out of range", name)
		}
	}
	if name[1] == '0' && len(name) > 2 {
		return 0, fmt.Errorf("bad process name %q (leading zero)", name)
	}
	return ProcessID(n), nil
}

// Model is a complete PSDF application model: a set of processes and
// the packet flows between them. Construct one with NewModel and
// AddFlow, or load one from a generated XML schema via package schema.
//
// The process set is kept without a map, as sorted runs (see
// AddProcess), so that reading it — Processes, Validate and every
// consumer of a parsed model — is a slice walk, and a model read by
// many goroutines is only ever read.
type Model struct {
	name string
	// procs holds the declared processes, each once, as sorted runs
	// laid end to end, longest first, whose lengths are the powers of
	// two that sum to len(procs): n = 13 is a run of 8, then 4, then 1.
	procs   []ProcessID
	spare   []ProcessID // merge scratch of AddProcess
	flows   []Flow
	nominal int // package size the flows' C values were calibrated at
}

// NewModel returns an empty PSDF model with the given application name.
func NewModel(name string) *Model {
	return &Model{name: name}
}

// Name returns the application name the model was created with.
func (m *Model) Name() string { return m.name }

// SetNominalPackageSize declares the package size the flows' C values
// were calibrated at. When set (positive), an emulator running with a
// different platform package size scales each package's processing
// cost proportionally to the data items it carries (processing work is
// a property of the data, not of the packaging). Zero — the default —
// means C is charged per package as-is, whatever the package size.
func (m *Model) SetNominalPackageSize(s int) {
	if s < 0 {
		panic("psdf: negative nominal package size")
	}
	m.nominal = s
}

// NominalPackageSize returns the calibration package size, or zero
// when C values are per-package regardless of size.
func (m *Model) NominalPackageSize() int { return m.nominal }

// AddProcess declares a process. Processes referenced by flows are
// declared implicitly; explicit declaration is only needed for
// processes with no flows (rare, but legal for sinks declared before
// their inputs are modeled).
//
// A new process is appended as a run of one, and runs of equal length
// at the end are merged, as a binary counter carries: each process
// takes part in at most log₂ P merges, so declaring P processes in any
// order costs O(P log P) in all, and the membership test is a binary
// search per run.
func (m *Model) AddProcess(p ProcessID) {
	if p == SystemOutput || m.hasProcess(p) {
		return
	}
	m.procs = append(m.procs, p)
	n := len(m.procs)
	for size := 1; n&size == 0; size <<= 1 {
		m.mergeRuns(m.procs[n-2*size:], size)
	}
}

// hasProcess reports whether p is declared.
func (m *Model) hasProcess(p ProcessID) bool {
	for rest := m.procs; len(rest) > 0; {
		run := rest[:1<<(bits.Len(uint(len(rest)))-1)]
		if _, ok := slices.BinarySearch(run, p); ok {
			return true
		}
		rest = rest[len(run):]
	}
	return false
}

// mergeRuns merges the sorted runs r[:size] and r[size:] in place.
func (m *Model) mergeRuns(r []ProcessID, size int) {
	if r[size-1] < r[size] {
		return // already in order, as ascending declarations leave them
	}
	left := append(m.spare[:0], r[:size]...)
	m.spare = left
	right := r[size:]
	i, j, k := 0, 0, 0
	for i < len(left) && j < len(right) {
		if right[j] < left[i] {
			r[k] = right[j]
			j++
		} else {
			r[k] = left[i]
			i++
		}
		k++
	}
	copy(r[k:], left[i:])
}

// sortedProcesses returns the declared processes in ascending order:
// procs itself when its runs follow each other in order, as they do
// when processes are declared in ascending order, else a sorted copy.
func (m *Model) sortedProcesses() []ProcessID {
	for rest := m.procs; len(rest) > 0; {
		n := 1 << (bits.Len(uint(len(rest))) - 1)
		if n < len(rest) && rest[n-1] > rest[n] {
			out := slices.Clone(m.procs)
			slices.Sort(out)
			return out
		}
		rest = rest[n:]
	}
	return m.procs
}

// AddFlow appends a flow to the model, implicitly declaring its source
// and target processes.
func (m *Model) AddFlow(f Flow) {
	m.AddProcess(f.Source)
	if f.Target != SystemOutput {
		m.AddProcess(f.Target)
	}
	m.flows = append(m.flows, f)
}

// Processes returns the declared process identifiers in ascending
// order.
func (m *Model) Processes() []ProcessID {
	out := make([]ProcessID, len(m.procs))
	copy(out, m.sortedProcesses())
	return out
}

// NumProcesses returns the number of declared processes.
func (m *Model) NumProcesses() int { return len(m.procs) }

// Flows returns the model's flows sorted by (Order, Source, Target).
// The slice is a copy; mutating it does not affect the model.
func (m *Model) Flows() []Flow {
	out := make([]Flow, len(m.flows))
	copy(out, m.flows)
	// The same pdqsort as sort.Slice, so flows equal in all three
	// keys keep the order they always had, without its reflection.
	slices.SortFunc(out, func(a, b Flow) int {
		if a.Order != b.Order {
			return cmp.Compare(a.Order, b.Order)
		}
		if a.Source != b.Source {
			return cmp.Compare(a.Source, b.Source)
		}
		return cmp.Compare(a.Target, b.Target)
	})
	return out
}

// NumFlows returns the number of flows in the model.
func (m *Model) NumFlows() int { return len(m.flows) }

// FlowsFrom returns the flows emitted by process p, sorted by ordering
// number.
func (m *Model) FlowsFrom(p ProcessID) []Flow {
	var out []Flow
	for _, f := range m.Flows() {
		if f.Source == p {
			out = append(out, f)
		}
	}
	return out
}

// FlowsInto returns the flows targeting process p, sorted by ordering
// number.
func (m *Model) FlowsInto(p ProcessID) []Flow {
	var out []Flow
	for _, f := range m.Flows() {
		if f.Target == p {
			out = append(out, f)
		}
	}
	return out
}

// Sources returns the processes with no incoming flows (the
// application's initial nodes), ascending.
func (m *Model) Sources() []ProcessID {
	return m.processesWithout(func(f Flow) ProcessID { return f.Target })
}

// Sinks returns the processes with no outgoing flows (final nodes),
// ascending.
func (m *Model) Sinks() []ProcessID {
	return m.processesWithout(func(f Flow) ProcessID { return f.Source })
}

// processesWithout returns, ascending, the processes that are no
// flow's end: end(f) for every flow f.
func (m *Model) processesWithout(end func(Flow) ProcessID) []ProcessID {
	procs := m.sortedProcesses()
	ended := make([]bool, len(procs))
	for _, f := range m.flows {
		if i, ok := slices.BinarySearch(procs, end(f)); ok {
			ended[i] = true
		}
	}
	var out []ProcessID
	for i, p := range procs {
		if !ended[i] {
			out = append(out, p)
		}
	}
	return out
}

// TotalItems returns the total number of data items carried by all
// flows of the model.
func (m *Model) TotalItems() int {
	n := 0
	for _, f := range m.flows {
		n += f.Items
	}
	return n
}

// TotalPackages returns the total number of packages transferred for
// package size s.
func (m *Model) TotalPackages(s int) int {
	n := 0
	for _, f := range m.flows {
		n += f.Packages(s)
	}
	return n
}

// Orders returns the distinct flow ordering numbers of the model,
// ascending. The emulator's schedule releases flows order by order.
func (m *Model) Orders() []int {
	out := make([]int, len(m.flows))
	for i, f := range m.flows {
		out[i] = f.Order
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	return &Model{
		name:    m.name,
		procs:   slices.Clone(m.procs),
		flows:   append([]Flow(nil), m.flows...),
		nominal: m.nominal,
	}
}
