package analyze

import (
	"sort"
	"strings"

	"segbus/internal/psdf"
)

// Stable diagnostic codes of the liveness analyzer.
const (
	// CodeStageCycle flags a dependency cycle among flows sharing one
	// ordering number. Severity is graded: when every cycle member's
	// entire input set originates inside the cycle the schedule
	// provably deadlocks (error); otherwise packages arriving from
	// outside the cycle may satisfy the proportional firing gates and
	// break the wait, so the cycle is only suspicious (warning).
	CodeStageCycle = "SB101"

	// CodeLateInput flags an input flow ordered after every emission
	// of its target: the data arrives too late to influence anything
	// downstream (warning).
	CodeLateInput = "SB102"

	// CodeNoPathToFinal flags a process none of whose flow paths
	// reaches a final node, so its results are unobservable (warning).
	CodeNoPathToFinal = "SB103"
)

// The liveness analyzer inspects the flow dependency structure that
// the schedule extraction (package sched) and the emulator's firing
// gates enforce: same-stage dependency cycles that deadlock or stall,
// T-order contradictions, and processes whose results can never reach
// a FinalNode. It runs on a bare PSDF model; no platform is needed.
// On valid models it additionally decides deadlock-versus-termination
// exactly (SB050–SB052) where the structural heuristics can only grade
// suspicion: the schedule's closed-form fixpoint (sched.Schedule.Drains)
// gives the verdict, and only a stalling schedule is compiled into the
// automata product (internal/automata), which builds the
// counterexample.
func init() {
	Register(&Analyzer{
		Name: "liveness",
		Doc:  "same-stage dependency cycles, T-order contradictions, unobservable processes, exact deadlock reachability",
		Run:  runLiveness,
	})
}

func runLiveness(pass *Pass) {
	m := pass.Model
	checkStageCycles(pass, m)
	checkLateInputs(pass, m)
	checkFeedsFinal(pass, m)
	checkExactReachability(pass)
}

// checkStageCycles finds dependency cycles among the flows of one
// stage. All flows of a stage may run concurrently, but a process's
// emissions are gated on its received input packages; processes
// feeding each other within the same stage can therefore wait on one
// another.
func checkStageCycles(pass *Pass, m *psdf.Model) {
	byOrder := make(map[int]map[psdf.ProcessID][]psdf.ProcessID)
	for _, f := range m.Flows() {
		if f.Target == psdf.SystemOutput || f.Source == f.Target {
			continue // self-loops are SB006
		}
		adj := byOrder[f.Order]
		if adj == nil {
			adj = make(map[psdf.ProcessID][]psdf.ProcessID)
			byOrder[f.Order] = adj
		}
		adj[f.Source] = append(adj[f.Source], f.Target)
	}

	// Input orders per process, to grade cycle severity; built on the
	// first cycle found.
	var inOrders map[psdf.ProcessID]map[int][]psdf.ProcessID

	orders := make([]int, 0, len(byOrder))
	for t := range byOrder {
		orders = append(orders, t)
	}
	sort.Ints(orders)

	for _, t := range orders {
		if len(byOrder[t]) < 2 {
			continue // a cycle needs two sources
		}
		for _, cycle := range stronglyConnected(byOrder[t]) {
			if len(cycle) < 2 {
				continue
			}
			if inOrders == nil {
				inOrders = make(map[psdf.ProcessID]map[int][]psdf.ProcessID)
				for _, f := range m.Flows() {
					if f.Target == psdf.SystemOutput {
						continue
					}
					if inOrders[f.Target] == nil {
						inOrders[f.Target] = make(map[int][]psdf.ProcessID)
					}
					inOrders[f.Target][f.Order] = append(inOrders[f.Target][f.Order], f.Source)
				}
			}
			members := make(map[psdf.ProcessID]bool, len(cycle))
			for _, p := range cycle {
				members[p] = true
			}
			// The cycle provably deadlocks when every member's entire
			// input set comes from inside the cycle at this order:
			// each member then needs at least one input package before
			// its first emission, and all of them wait on each other.
			closed := true
			for _, p := range cycle {
				for order, srcs := range inOrders[p] {
					for _, src := range srcs {
						if order != t || !members[src] {
							closed = false
						}
					}
				}
			}
			names := make([]string, len(cycle))
			for i, p := range cycle {
				names[i] = p.String()
			}
			sev, verdict := SeverityWarning,
				"packages arriving from outside the cycle may break the wait, but the stage can stall"
			if closed {
				sev, verdict = SeverityError,
					"every member's inputs originate inside the cycle, so the schedule deadlocks"
			}
			pass.Reportf(CodeStageCycle, sev, names[0],
				"flows of order %d form a dependency cycle (%s): %s",
				t, strings.Join(names, " -> "), verdict)
		}
	}
}

// stronglyConnected returns the strongly connected components of the
// adjacency map with two or more members, each sorted by process id,
// components ordered by their smallest member (Tarjan's algorithm,
// iterative to keep fuzzed inputs from exhausting the stack).
func stronglyConnected(adj map[psdf.ProcessID][]psdf.ProcessID) [][]psdf.ProcessID {
	nodes := make([]psdf.ProcessID, 0, len(adj))
	seen := make(map[psdf.ProcessID]bool)
	addNode := func(p psdf.ProcessID) {
		if !seen[p] {
			seen[p] = true
			nodes = append(nodes, p)
		}
	}
	for src, dsts := range adj {
		addNode(src)
		for _, d := range dsts {
			addNode(d)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	index := make(map[psdf.ProcessID]int, len(nodes))
	low := make(map[psdf.ProcessID]int, len(nodes))
	onStack := make(map[psdf.ProcessID]bool, len(nodes))
	var stack []psdf.ProcessID
	next := 0
	var sccs [][]psdf.ProcessID

	type frame struct {
		node psdf.ProcessID
		edge int
	}
	for _, root := range nodes {
		if _, ok := index[root]; ok {
			continue
		}
		work := []frame{{node: root}}
		for len(work) > 0 {
			fr := &work[len(work)-1]
			v := fr.node
			if fr.edge == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for fr.edge < len(adj[v]) {
				w := adj[v][fr.edge]
				fr.edge++
				if _, ok := index[w]; !ok {
					work = append(work, frame{node: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var comp []psdf.ProcessID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) > 1 {
					sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
					sccs = append(sccs, comp)
				}
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].node
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}

// checkLateInputs flags T-order contradictions: an input flow ordered
// strictly after every emission of its target delivers data that can
// influence nothing downstream.
func checkLateInputs(pass *Pass, m *psdf.Model) {
	lastOut := make(map[psdf.ProcessID]int)
	hasOut := make(map[psdf.ProcessID]bool)
	for _, f := range m.Flows() {
		if !hasOut[f.Source] || f.Order > lastOut[f.Source] {
			lastOut[f.Source] = f.Order
		}
		hasOut[f.Source] = true
	}
	for _, f := range m.Flows() {
		if f.Target == psdf.SystemOutput || !hasOut[f.Target] {
			continue
		}
		if f.Order > lastOut[f.Target] {
			pass.Reportf(CodeLateInput, SeverityWarning, f.Target.String(),
				"input flow %s (order %d) arrives after %s's last emission (order %d): the data can influence nothing downstream",
				f, f.Order, f.Target, lastOut[f.Target])
		}
	}
}

// checkFeedsFinal flags processes from which no flow path reaches a
// final node (a process with no outputs, or one emitting to the
// system output): their results are unobservable. The complement of
// the validator's InitialNode reachability check (SB009).
func checkFeedsFinal(pass *Pass, m *psdf.Model) {
	radj := make(map[psdf.ProcessID][]psdf.ProcessID)
	coReach := make(map[psdf.ProcessID]bool)
	var frontier []psdf.ProcessID
	mark := func(p psdf.ProcessID) {
		if !coReach[p] {
			coReach[p] = true
			frontier = append(frontier, p)
		}
	}
	for _, f := range m.Flows() {
		if f.Target == psdf.SystemOutput {
			mark(f.Source)
			continue
		}
		radj[f.Target] = append(radj[f.Target], f.Source)
	}
	for _, p := range m.Sinks() {
		mark(p)
	}
	for len(frontier) > 0 {
		p := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, q := range radj[p] {
			mark(q)
		}
	}
	for _, p := range m.Processes() {
		if !coReach[p] {
			pass.Reportf(CodeNoPathToFinal, SeverityWarning, p.String(),
				"no flow path from %s reaches a final node: its results are unobservable", p)
		}
	}
}
