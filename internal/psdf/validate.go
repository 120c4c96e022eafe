package psdf

import (
	"cmp"
	"fmt"
	"slices"
)

// ValidationError describes one well-formedness violation found in a
// PSDF model. Errors carry the offending flow (when applicable) so
// that a front end can highlight the model element, mirroring the DSL
// tool behaviour described in section 2.2 of the paper. Code is the
// stable SB0xx diagnostic code of the violated rule (see
// internal/analyze for the full table).
type ValidationError struct {
	Code    string // stable diagnostic code ("SB006")
	Flow    *Flow  // offending flow, nil for model-level violations
	Message string // human-readable description
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	prefix := "psdf: "
	if e.Flow != nil {
		prefix = fmt.Sprintf("psdf: flow %s: ", e.Flow)
	}
	if e.Code != "" {
		prefix += e.Code + ": "
	}
	return prefix + e.Message
}

// Stable diagnostic codes of the PSDF well-formedness rules.
const (
	CodeNoProcesses   = "SB001" // model has no processes
	CodeNoFlows       = "SB002" // model has no flows
	CodeBadItems      = "SB003" // non-positive data item count
	CodeBadOrder      = "SB004" // negative ordering number
	CodeBadTicks      = "SB005" // negative per-package tick count
	CodeSelfLoop      = "SB006" // flow is a self-loop
	CodeDuplicateFlow = "SB007" // duplicate (source, target, order)
	CodeIsolated      = "SB008" // process carries no flow at all
	CodeUnreachable   = "SB009" // not reachable from any initial node
	CodeOrderTooEarly = "SB010" // ordered before every feeding flow
)

// ValidationErrors aggregates every violation found in one validation
// pass so the designer can fix them all at once.
type ValidationErrors []*ValidationError

// Error implements the error interface by joining the individual
// messages.
func (es ValidationErrors) Error() string {
	switch len(es) {
	case 0:
		return "psdf: no validation errors"
	case 1:
		return es[0].Error()
	}
	s := es[0].Error()
	for _, e := range es[1:] {
		s += "; " + e.Error()
	}
	return s
}

// Validate checks the model against the PSDF well-formedness rules:
//
//   - the model has at least one process and at least one flow;
//   - every flow carries a positive number of data items;
//   - ordering numbers and per-package tick counts are non-negative;
//   - no flow is a self-loop;
//   - no two flows share the same (source, target, order) triple —
//     the paper's definition requires flows to be distinguishable;
//   - every non-source process is reachable from some initial node
//     (no orphan islands fed by nothing);
//   - the flow dependency structure is acyclic when ordering numbers
//     are taken into account: a flow must not be ordered before a
//     flow that produces its source's input data, unless they share
//     an ordering number (concurrent flows).
//
// A nil return means the model is valid. Otherwise the returned error
// is a ValidationErrors listing every violation.
//
// Processes are addressed by their position in the sorted process
// list, and flows are grouped by source in one counting pass, so a
// pass costs O(F log P) for F flows and P processes, and a valid model
// costs two scratch allocations (three when its process runs need
// sorting).
func (m *Model) Validate() error {
	var errs ValidationErrors
	add := func(code string, f *Flow, format string, args ...interface{}) {
		errs = append(errs, &ValidationError{Code: code, Flow: f, Message: fmt.Sprintf(format, args...)})
	}

	procs := m.sortedProcesses()
	if len(procs) == 0 {
		add(CodeNoProcesses, nil, "model %q has no processes", m.name)
	}
	if len(m.flows) == 0 {
		add(CodeNoFlows, nil, "model %q has no flows", m.name)
	}

	// Scratch. Per flow: its source's and target's positions (-1 for
	// the system output, and for a source that is no process). The
	// flows to processes, grouped by source in byFrom: group g ends at
	// start[g] and begins where group g-1 ends; flows from a source
	// that is no process form group nP. Per process: the input flow
	// of least order (-1 when none), a DFS stack and flags.
	nP, nF := len(procs), len(m.flows)
	ix := make([]int32, 3*nF+3*nP+1)
	carve := func(n int) []int32 {
		s := ix[:n:n]
		ix = ix[n:]
		return s
	}
	src, dst, byFrom := carve(nF), carve(nF), carve(nF)
	start, minIn, stack := carve(nP+1), carve(nP), carve(nP)
	const touched, fed, reached = 1, 2, 4
	flag := make([]uint8, nP+nF)
	dup := flag[nP:] // per flow: repeats an earlier (source, target, order)

	pos := func(p ProcessID) int32 {
		if k, ok := slices.BinarySearch(procs, p); ok {
			return int32(k)
		}
		return -1
	}
	group := func(i int) int32 {
		if src[i] < 0 {
			return int32(nP)
		}
		return src[i]
	}
	for k := range minIn {
		minIn[k] = -1
	}
	for i, f := range m.flows {
		src[i], dst[i] = pos(f.Source), -1
		if s := src[i]; s >= 0 {
			flag[s] |= touched
		}
		if f.Target == SystemOutput {
			continue
		}
		d := pos(f.Target)
		dst[i] = d
		flag[d] |= touched | fed
		if j := minIn[d]; j < 0 || f.Order < m.flows[j].Order {
			minIn[d] = int32(i)
		}
		start[group(i)]++
	}
	// Counting sort by source: start[g] becomes where group g begins,
	// and the fill below advances it to where the group ends.
	sum := int32(0)
	for g, n := range start {
		start[g], sum = sum, sum+n
	}
	for i := range m.flows {
		if dst[i] >= 0 {
			g := group(i)
			byFrom[start[g]] = int32(i)
			start[g]++
		}
	}
	// Within a group, order by (target, order, index): the flows
	// sharing a (source, target, order) are then adjacent, the
	// earliest first, and every later one is a duplicate.
	for g := range start {
		run := byFrom[groupBegin(start, g):start[g]]
		if len(run) < 2 {
			continue
		}
		slices.SortFunc(run, func(a, b int32) int {
			if dst[a] != dst[b] {
				return int(dst[a] - dst[b])
			}
			if oa, ob := m.flows[a].Order, m.flows[b].Order; oa != ob {
				return cmp.Compare(oa, ob)
			}
			return int(a - b)
		})
		for k := 1; k < len(run); k++ {
			a, b := run[k-1], run[k]
			if dst[a] == dst[b] && m.flows[a].Order == m.flows[b].Order {
				dup[b] = 1
			}
		}
	}

	for i := range m.flows {
		f := &m.flows[i]
		if f.Items <= 0 {
			add(CodeBadItems, f, "non-positive data item count %d", f.Items)
		}
		if f.Order < 0 {
			add(CodeBadOrder, f, "negative ordering number %d", f.Order)
		}
		if f.Ticks < 0 {
			add(CodeBadTicks, f, "negative per-package tick count %d", f.Ticks)
		}
		if f.Source == f.Target {
			add(CodeSelfLoop, f, "self-loop")
		}
		if dup[i] != 0 {
			add(CodeDuplicateFlow, f, "duplicate flow (same source, target and ordering number)")
		}
	}

	if nF > 0 {
		// Isolated processes: declared but carrying no flow at all.
		for k, p := range procs {
			if flag[k]&touched == 0 {
				add(CodeIsolated, nil, "process %s is isolated (no incoming or outgoing flow)", p)
			}
		}

		// Reachability from initial nodes, the processes nothing feeds.
		top := 0
		for k := range procs {
			if flag[k]&fed == 0 {
				flag[k] |= reached
				stack[top] = int32(k)
				top++
			}
		}
		for top > 0 {
			top--
			k := stack[top]
			for _, i := range byFrom[groupBegin(start, int(k)):start[k]] {
				if d := dst[i]; flag[d]&reached == 0 {
					flag[d] |= reached
					stack[top] = d
					top++
				}
			}
		}
		for k, p := range procs {
			if flag[k]&reached == 0 {
				add(CodeUnreachable, nil, "process %s is not reachable from any initial node", p)
			}
		}
	}

	// Ordering consistency: a process's output flow must not be
	// strictly ordered before all flows feeding that process, because
	// then it could never have data to send. (Sources are exempt.)
	for i := range m.flows {
		if src[i] < 0 || minIn[src[i]] < 0 {
			continue // source process: always has data
		}
		f, minOrder := &m.flows[i], m.flows[minIn[src[i]]].Order
		if f.Order < minOrder {
			add(CodeOrderTooEarly, f, "ordered (%d) before every flow feeding its source (earliest input order %d)", f.Order, minOrder)
		}
	}

	if len(errs) == 0 {
		return nil
	}
	return errs
}

// groupBegin returns where group g of a counting sort begins, given
// each group's end in ends.
func groupBegin(ends []int32, g int) int32 {
	if g == 0 {
		return 0
	}
	return ends[g-1]
}
