package conform

import (
	"fmt"
	"math/rand"

	"segbus/internal/dsl"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// Generator produces a deterministic stream of valid (PSDF, PSM)
// documents from a root seed: layered random application graphs on
// random platforms, interleaved with mutations of the corpus documents
// it was seeded with (the scenario corpus, typically).
type Generator struct {
	rng    *rand.Rand
	corpus []*dsl.Document
	next   int
}

// NewGenerator returns a generator rooted at seed. corpus may be nil.
func NewGenerator(seed int64, corpus []*dsl.Document) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), corpus: corpus}
}

// Next produces the next case. Documents are always structurally valid
// (model, platform, mapping and roles); advisory warnings such as a
// nominal/platform package-size mismatch are allowed and exercised on
// purpose.
func (g *Generator) Next() *Case {
	idx := g.next
	g.next++
	if len(g.corpus) > 0 && g.rng.Intn(10) < 3 {
		if doc := g.mutateCorpus(); doc != nil {
			return &Case{Index: idx, Origin: "corpus:" + doc.Model.Name(), Doc: doc}
		}
	}
	return &Case{Index: idx, Origin: "generated", Doc: g.random()}
}

// CyclicMutant returns a copy of doc in which the target of its i-th
// flow (canonical order) feeds the flow's source back at the same
// ordering number. Some mutants stay self-consistent and drain; others
// starve, which are exactly the shapes the SB101 heuristic cannot
// separate and the exact reachability check must. The copy is not
// validated. CyclicMutant returns nil when doc has no i-th flow or
// that flow leaves the system.
func CyclicMutant(doc *dsl.Document, i int) *dsl.Document {
	fs := doc.Model.Flows()
	if i >= len(fs) || fs[i].Target == psdf.SystemOutput {
		return nil
	}
	f := fs[i]
	mut := cloneDoc(doc)
	mut.Model.AddFlow(psdf.Flow{Source: f.Target, Target: f.Source, Items: f.Items, Order: f.Order, Ticks: 3})
	return mut
}

// random builds a fresh random document, retrying the rare draw that
// fails validation.
func (g *Generator) random() *dsl.Document {
	for attempt := 0; attempt < 10; attempt++ {
		doc := g.randomOnce()
		if !doc.Validate().HasErrors() {
			return doc
		}
	}
	// Deterministic minimal fallback; cannot fail validation.
	m := psdf.NewModel("fallback")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 10})
	p := platform.New("fallback-plat", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0, 1)
	return &dsl.Document{Model: m, Platform: p, Stereotype: map[psdf.ProcessID]dsl.Stereotype{}}
}

func (g *Generator) randomOnce() *dsl.Document {
	rng := g.rng

	// Layered application graph: every layer-i process is fed from
	// layer i-1, so reachability and ordering consistency hold by
	// construction.
	layers := 2 + rng.Intn(3) // 2..4
	var layout [][]int
	total := 0
	for i := 0; i < layers; i++ {
		n := 1 + rng.Intn(3) // 1..3 per layer
		row := make([]int, n)
		for j := range row {
			row[j] = total
			total++
		}
		layout = append(layout, row)
	}
	// Shuffled id assignment decorrelates process numbers from the
	// topology (exercises the permute-ids oracle's tie-breaking).
	ids := make([]psdf.ProcessID, total)
	for i := range ids {
		ids[i] = psdf.ProcessID(i)
	}
	rng.Shuffle(total, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	m := psdf.NewModel(fmt.Sprintf("gen%d", g.next))
	randItems := func() int { return 1 + rng.Intn(200) }
	randTicks := func() int { return rng.Intn(120) }

	type flowKey struct {
		src, dst psdf.ProcessID
		order    int
	}
	seen := make(map[flowKey]bool)
	addFlow := func(src, dst psdf.ProcessID, order int) {
		k := flowKey{src, dst, order}
		if seen[k] || src == dst {
			return
		}
		seen[k] = true
		m.AddFlow(psdf.Flow{Source: src, Target: dst, Items: randItems(), Order: order, Ticks: randTicks()})
	}

	for i := 1; i < layers; i++ {
		for _, dst := range layout[i] {
			src := layout[i-1][rng.Intn(len(layout[i-1]))]
			order := i
			if rng.Intn(5) == 0 {
				order = i + 1
			}
			addFlow(ids[src], ids[dst], order)
		}
	}
	for extra := rng.Intn(4); extra > 0; extra-- {
		i := 1 + rng.Intn(layers-1)
		src := layout[i-1][rng.Intn(len(layout[i-1]))]
		dst := layout[i][rng.Intn(len(layout[i]))]
		addFlow(ids[src], ids[dst], i)
	}
	if rng.Intn(3) == 0 {
		last := layout[layers-1]
		src := last[rng.Intn(len(last))]
		m.AddFlow(psdf.Flow{Source: ids[src], Target: psdf.SystemOutput,
			Items: randItems(), Order: layers, Ticks: randTicks()})
	}

	s := 1 + rng.Intn(64)
	switch rng.Intn(5) {
	case 0, 1: // calibrated at the platform size
		m.SetNominalPackageSize(s)
	case 2: // calibrated elsewhere: exercises C rescaling
		m.SetNominalPackageSize(1 + rng.Intn(64))
	}

	// Platform: split the processes over 1..4 non-empty segments.
	procs := m.Processes()
	rng.Shuffle(len(procs), func(i, j int) { procs[i], procs[j] = procs[j], procs[i] })
	nSeg := 1 + rng.Intn(4)
	if nSeg > len(procs) {
		nSeg = len(procs)
	}
	p := platform.New(m.Name()+"-plat", g.randClock(), s)
	p.HeaderTicks = rng.Intn(13)
	p.CAHopTicks = rng.Intn(21)
	per := len(procs) / nSeg
	start := 0
	for i := 0; i < nSeg; i++ {
		end := start + per
		if i == nSeg-1 {
			end = len(procs)
		}
		p.AddSegment(g.randClock(), procs[start:end]...)
		start = end
	}

	// Occasionally constrain FU roles to what the flows require.
	if rng.Intn(4) == 0 {
		doc := &dsl.Document{Model: m, Platform: p}
		for _, seg := range p.Segments {
			for i := range seg.FUs {
				proc := seg.FUs[i].Process
				if len(m.FlowsInto(proc)) == 0 && rng.Intn(2) == 0 {
					seg.FUs[i].Kind = platform.MasterOnly
				} else if len(m.FlowsFrom(proc)) == 0 && rng.Intn(2) == 0 {
					seg.FUs[i].Kind = platform.SlaveOnly
				}
			}
		}
		return doc
	}
	return &dsl.Document{Model: m, Platform: p, Stereotype: map[psdf.ProcessID]dsl.Stereotype{}}
}

// randClock draws an exact integer-megahertz clock, so documents
// round-trip through the DSL printer losslessly.
func (g *Generator) randClock() platform.Hz {
	return platform.Hz(40+g.rng.Intn(211)) * platform.MHz
}

// mutateCorpus clones a random corpus document and perturbs one knob:
// the package size, a segment clock, the protocol tick counts, or a
// process placement. Returns nil when the mutation broke validity (the
// caller falls back to a generated case).
func (g *Generator) mutateCorpus() *dsl.Document {
	rng := g.rng
	doc := cloneDoc(g.corpus[rng.Intn(len(g.corpus))])
	if doc.Platform == nil {
		return nil
	}
	p := doc.Platform
	switch rng.Intn(4) {
	case 0:
		p.PackageSize = 1 + rng.Intn(64)
	case 1:
		p.Segments[rng.Intn(len(p.Segments))].Clock = g.randClock()
	case 2:
		p.HeaderTicks = rng.Intn(13)
		p.CAHopTicks = rng.Intn(21)
	case 3:
		// Move a random process to another segment, keeping every
		// segment populated.
		from := p.Segments[rng.Intn(len(p.Segments))]
		if len(from.FUs) < 2 || len(p.Segments) < 2 {
			return nil
		}
		proc := from.FUs[rng.Intn(len(from.FUs))].Process
		to := 1 + rng.Intn(len(p.Segments))
		if err := p.MoveProcess(proc, to); err != nil {
			return nil
		}
	}
	if doc.Validate().HasErrors() {
		return nil
	}
	return doc
}
