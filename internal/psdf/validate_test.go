package psdf_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"segbus/internal/conform"
	"segbus/internal/psdf"
)

// corpusModels returns the models of the first n servable conformance
// pairs, the shapes the service validates.
func corpusModels(tb testing.TB, n int) []*psdf.Model {
	tb.Helper()
	cases, err := conform.ServableCases(1, n, nil)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*psdf.Model, len(cases))
	for i, c := range cases {
		out[i] = c.Doc.Model
	}
	return out
}

// A fuzz input declares a model record by record: an even op byte
// then a process id declares that process, an odd op byte then five
// bytes adds the flow (source, target, items, order, ticks). Every
// operand is a signed byte, so ids collide and the system output
// (0xff, that is -1) and negative counts are one byte away.
const (
	opProcess = 0
	opFlow    = 1
)

// decodeModel builds the model a fuzz input declares.
func decodeModel(data []byte) *psdf.Model {
	m := psdf.NewModel("fuzz")
	for len(data) >= 2 {
		if data[0]&1 == opProcess {
			m.AddProcess(psdf.ProcessID(int8(data[1])))
			data = data[2:]
			continue
		}
		if len(data) < 6 {
			break
		}
		m.AddFlow(psdf.Flow{
			Source: psdf.ProcessID(int8(data[1])),
			Target: psdf.ProcessID(int8(data[2])),
			Items:  int(int8(data[3])),
			Order:  int(int8(data[4])),
			Ticks:  int(int8(data[5])),
		})
		data = data[6:]
	}
	return m
}

// encodeModel is decodeModel's inverse for ids and numbers that fit a
// signed byte; larger ones are clamped, which keeps their sign.
func encodeModel(procs []psdf.ProcessID, flows []psdf.Flow) []byte {
	clamp := func(v int) byte { return byte(int8(max(-128, min(127, v)))) }
	var out []byte
	for _, p := range procs {
		out = append(out, opProcess, clamp(int(p)))
	}
	for _, f := range flows {
		out = append(out, opFlow, clamp(int(f.Source)), clamp(int(f.Target)), clamp(f.Items), clamp(f.Order), clamp(f.Ticks))
	}
	return out
}

// validateSeeds returns FuzzModelValidate's seeds: conform-generated
// models as declared, reversed and shuffled, and mutants of them with
// each kind of violation.
func validateSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var seeds [][]byte
	for _, m := range corpusModels(tb, 24) {
		procs, flows := m.Processes(), m.Flows()
		seeds = append(seeds, encodeModel(procs, flows))
		rprocs, rflows := slices.Clone(procs), slices.Clone(flows)
		slices.Reverse(rprocs)
		slices.Reverse(rflows)
		seeds = append(seeds, encodeModel(rprocs, rflows))
		rng.Shuffle(len(rprocs), func(i, j int) { rprocs[i], rprocs[j] = rprocs[j], rprocs[i] })
		rng.Shuffle(len(rflows), func(i, j int) { rflows[i], rflows[j] = rflows[j], rflows[i] })
		seeds = append(seeds, encodeModel(nil, rflows), encodeModel(rprocs, rflows))

		f := flows[rng.Intn(len(flows))]
		last := procs[len(procs)-1]
		late := flows[len(flows)-1] // fed, for a non-source source
		for _, extra := range [][]psdf.Flow{
			{{Source: f.Source, Target: f.Source, Items: 1, Order: f.Order}}, // self-loop
			{f}, // duplicate
			{{Source: last + 1, Target: last + 2, Items: 1, Order: 1}, {Source: last + 2, Target: last + 1, Items: 1, Order: 2}}, // unreachable cycle
			{{Source: late.Target, Target: f.Target, Items: 1, Order: late.Order - 1}},                                           // ordered too early
			{{Source: f.Target, Target: psdf.SystemOutput, Items: 36, Order: f.Order + 1, Ticks: 10}},                            // system output
			{{Source: f.Source, Target: f.Target, Items: 0, Order: -1, Ticks: -1}},                                               // bad counts
		} {
			seeds = append(seeds, encodeModel(procs, append(slices.Clone(flows), extra...)))
		}
		seeds = append(seeds, encodeModel(append(slices.Clone(procs), last+3), flows)) // isolated
	}
	return seeds
}

// FuzzModelValidate holds the map-free process set, Validate and
// Flows to their oracles (psdf.CheckOracles) on arbitrary models.
func FuzzModelValidate(f *testing.F) {
	for _, seed := range validateSeeds(f) {
		f.Add(seed)
	}
	// Flows equal in (order, source, target) but told apart by their
	// counts, more than insertion sort handles: Flows must keep them in
	// the order sort.Slice left them.
	var ties []psdf.Flow
	for i := 0; i < 40; i++ {
		ties = append(ties, psdf.Flow{Source: psdf.ProcessID(i % 3), Target: 5, Items: i + 1, Order: i % 2, Ticks: 40 - i})
	}
	f.Add(encodeModel(nil, ties))
	f.Add([]byte{})
	f.Add([]byte{opProcess, 3})
	f.Add([]byte{opFlow, 0xff, 0xff, 0, 0, 0})
	f.Add([]byte{opFlow, 0xff, 2, 1, 1, 1, opFlow, 0xff, 2, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		psdf.CheckOracles(t, decodeModel(data))
	})
}

// TestReversedConstructionScales declares 3·10⁴ and 3·10⁵ processes
// in descending order, each feeding the one declared before it, and
// validates and lists each chain: ten times the processes must cost
// well under a hundred times the time, the growth of keeping them in
// one sorted slice (about 4.5·10¹⁰ element moves at 3·10⁵); sorted
// runs grow as P log P. Each size is timed at its best of several
// builds, each lasting tens of milliseconds or more, so a preempted
// build does not decide the ratio.
func TestReversedConstructionScales(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 3·10⁵-process model")
	}
	build := func(n, runs int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for range runs {
			start := time.Now()
			m := psdf.NewModel("reversed")
			for p := psdf.ProcessID(n - 1); p > 0; p-- {
				m.AddFlow(psdf.Flow{Source: p - 1, Target: p, Items: 1, Order: int(p)})
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			procs := m.Processes()
			best = min(best, time.Since(start))
			if len(procs) != n || !slices.IsSorted(procs) || procs[0] != 0 || procs[n-1] != psdf.ProcessID(n-1) {
				t.Fatalf("%d processes: got %d, sorted %v", n, len(procs), slices.IsSorted(procs))
			}
		}
		return best
	}
	small, large := build(30_000, 5), build(300_000, 3)
	ratio := float64(large) / float64(small)
	t.Logf("%v for 3·10⁴ processes, %v for 3·10⁵ (%.1f×)", small, large, ratio)
	if ratio >= 40 {
		t.Errorf("10× the processes took %.1f× the time, want < 40×", ratio)
	}
}

// BenchmarkValidate measures Model.Validate over the models of the 64
// servable pairs the serving benchmark's warm workload sends; every
// one is valid.
func BenchmarkValidate(b *testing.B) {
	models := corpusModels(b, 64)
	for _, m := range models {
		if err := m.Validate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := models[i%len(models)].Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
