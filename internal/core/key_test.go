package core_test

// The XML renderer is the semantic definition of core.Key: two pairs
// must share a key exactly when their rendered PSDF and PSM schemes are
// equal. These tests hold the binary encoding Key hashes to that
// definition, and fence its cost.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"segbus/internal/apps"
	"segbus/internal/conform"
	"segbus/internal/core"
	"segbus/internal/dsl"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/schema"
)

// keyPair is one (model, platform) pair of the oracle corpus.
type keyPair struct {
	name string
	m    *psdf.Model
	plat *platform.Platform
}

// rendering is a pair's rendered schemes, comparable as a map key.
type rendering struct{ psdf, psm string }

// parsePair reads a scheme pair the way the service does.
func parsePair(tb testing.TB, name string, psdfXML, psmXML []byte) keyPair {
	tb.Helper()
	m, err := schema.ParsePSDF(psdfXML)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	plat, err := schema.ParsePSM(psmXML)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return keyPair{name, m, plat}
}

// render returns the pair's schemes, failing the test when the pair
// does not render.
func render(tb testing.TB, p keyPair) rendering {
	tb.Helper()
	psdfXML, psmXML, err := core.Transform(p.m, p.plat)
	if err != nil {
		tb.Fatalf("%s: %v", p.name, err)
	}
	return rendering{string(psdfXML), string(psmXML)}
}

func mustKey(tb testing.TB, p keyPair, opts core.Options) string {
	tb.Helper()
	k, err := core.Key(p.m, p.plat, opts)
	if err != nil {
		tb.Fatalf("%s: %v", p.name, err)
	}
	return k
}

// reencode re-encodes a scheme as the benchmark's warm workload does:
// a comment after the declaration, and a tab for each two-space
// indent.
func reencode(doc []byte, n int) []byte {
	decl, rest, _ := strings.Cut(string(doc), "\n")
	lines := strings.Split(rest, "\n")
	for i, l := range lines {
		trimmed := strings.TrimLeft(l, " ")
		lines[i] = strings.Repeat("\t", (len(l)-len(trimmed))/2) + trimmed
	}
	return []byte(decl + "\n<!-- request " + strconv.Itoa(n) + " -->\n" + strings.Join(lines, "\n"))
}

// servedSchemes returns the scheme pairs the service is sent: the
// first n servable conformance cases of seed 1, then the goldens.
func servedSchemes(tb testing.TB, n int) (names []string, docs [][2][]byte) {
	tb.Helper()
	cases, err := conform.ServableCases(1, n, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i, c := range cases {
		psdfXML, psmXML, err := c.Schemes()
		if err != nil {
			tb.Fatal(err)
		}
		names = append(names, fmt.Sprintf("case %d", i))
		docs = append(docs, [2][]byte{psdfXML, psmXML})
	}
	var golden [2][]byte
	for i, name := range []string{"mp3-psdf.xsd", "mp3-psm.xsd"} {
		if golden[i], err = os.ReadFile(filepath.Join("../../testdata/golden", name)); err != nil {
			tb.Fatal(err)
		}
	}
	return append(names, "golden"), append(docs, golden)
}

// scenarioPairs returns every scenario model of the corpus, deadlocking
// ones included, as in-memory pairs.
func scenarioPairs(tb testing.TB) []keyPair {
	tb.Helper()
	paths, err := filepath.Glob("../../testdata/scenarios/*.sbd")
	if err != nil {
		tb.Fatal(err)
	}
	more, err := filepath.Glob("../../testdata/scenarios/*/*.sbd")
	if err != nil {
		tb.Fatal(err)
	}
	var out []keyPair
	for _, path := range append(paths, more...) {
		f, err := os.Open(path)
		if err != nil {
			tb.Fatal(err)
		}
		doc, err := dsl.Parse(f)
		f.Close()
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		out = append(out, keyPair{path, doc.Model, doc.Platform})
	}
	if len(out) < 8 {
		tb.Fatalf("only %d scenario models", len(out))
	}
	return out
}

// TestKeyMatchesRendering is the differential oracle: across 200
// parsed servable pairs, their re-encodings, the scenario models, the
// in-memory reference pairs and the goldens, two pairs share a key
// exactly when they render to the same schemes — and a pair the
// renderer refuses, Key refuses with the same error. Every pair
// re-encoded as serve_warm re-encodes it (a comment and tab
// indentation) must keep its verbatim pair's key.
func TestKeyMatchesRendering(t *testing.T) {
	names, docs := servedSchemes(t, 200)
	var pairs []keyPair
	for i, d := range docs {
		verbatim := parsePair(t, names[i], d[0], d[1])
		reencoded := parsePair(t, names[i]+" re-encoded", reencode(d[0], i), reencode(d[1], i))
		if mustKey(t, verbatim, core.Options{}) != mustKey(t, reencoded, core.Options{}) {
			t.Errorf("%s: re-encoding changed the key", names[i])
		}
		pairs = append(pairs, verbatim, reencoded)
	}
	pairs = append(pairs, scenarioPairs(t)...)
	pairs = append(pairs,
		keyPair{"mp3 in memory", apps.MP3Model(), apps.MP3Platform3(36)},
		keyPair{"mp3 2seg", apps.MP3Model(), apps.MP3Platform2(36)},
		keyPair{"jpeg", apps.JPEGModel(), apps.JPEGPlatform3(64)})

	byKey := make(map[string]rendering)
	byRendering := make(map[rendering]string)
	shared := 0
	for _, p := range pairs {
		r := render(t, p)
		k := mustKey(t, p, core.Options{})
		if prev, ok := byKey[k]; ok && prev != r {
			t.Errorf("%s: key %s is shared with a pair that renders differently", p.name, k)
		}
		if prev, ok := byRendering[r]; ok {
			shared++
			if prev != k {
				t.Errorf("%s: renders like an earlier pair but keys %s, not %s", p.name, k, prev)
			}
		}
		byKey[k], byRendering[r] = r, k
	}
	if shared < len(docs) {
		t.Errorf("only %d pairs render like an earlier one; the corpus does not exercise equal renderings", shared)
	}
	if len(byKey) != len(byRendering) {
		t.Errorf("%d distinct keys for %d distinct renderings", len(byKey), len(byRendering))
	}

	bad := apps.MP3Platform3(36)
	bad.PackageSize = 0
	for _, p := range []keyPair{
		{"empty model", psdf.NewModel("empty"), apps.MP3Platform3(36)},
		{"bad platform", apps.MP3Model(), bad},
		{"no segments", apps.MP3Model(), platform.New("none", 100*platform.MHz, 36)},
	} {
		_, _, wantErr := core.Transform(p.m, p.plat)
		_, err := core.Key(p.m, p.plat, core.Options{})
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: Key error %v, want the renderer's %v", p.name, err, wantErr)
		}
	}
}

// rebuild returns a copy of m named name with the given nominal
// package size, processes and flows.
func rebuild(name string, nominal int, procs []psdf.ProcessID, flows []psdf.Flow) *psdf.Model {
	out := psdf.NewModel(name)
	out.SetNominalPackageSize(nominal)
	for _, p := range procs {
		out.AddProcess(p)
	}
	for _, f := range flows {
		out.AddFlow(f)
	}
	return out
}

// mutations returns one-field mutations of the pair: every value the
// schemes render, each changed on its own.
func mutations(p keyPair) []keyPair {
	m, plat := p.m, p.plat
	procs, flows := m.Processes(), m.Flows()
	nominal := m.NominalPackageSize()
	var out []keyPair
	add := func(what string, mm *psdf.Model, pp *platform.Platform) {
		out = append(out, keyPair{what, mm, pp})
	}
	withFlow := func(i int, edit func(*psdf.Flow)) *psdf.Model {
		fs := append([]psdf.Flow(nil), flows...)
		edit(&fs[i])
		return rebuild(m.Name(), nominal, procs, fs)
	}

	add("app name", rebuild(m.Name()+"-x", nominal, procs, flows), plat)
	add("nominal package size", rebuild(m.Name(), nominal+1, procs, flows), plat)
	for i := range flows {
		add("flow target", withFlow(i, func(f *psdf.Flow) { f.Target++ }), plat)
		add("flow items", withFlow(i, func(f *psdf.Flow) { f.Items++ }), plat)
		add("flow order", withFlow(i, func(f *psdf.Flow) { f.Order++ }), plat)
		add("flow ticks", withFlow(i, func(f *psdf.Flow) { f.Ticks++ }), plat)
	}
	// Relabel one process everywhere: the process set itself changes.
	fresh := procs[len(procs)-1] + 1
	relabel := func(q psdf.ProcessID) psdf.ProcessID {
		if q == procs[0] {
			return fresh
		}
		return q
	}
	fs := append([]psdf.Flow(nil), flows...)
	for i := range fs {
		fs[i].Source, fs[i].Target = relabel(fs[i].Source), relabel(fs[i].Target)
	}
	rp := plat.Clone()
	for _, s := range rp.Segments {
		for i := range s.FUs {
			s.FUs[i].Process = relabel(s.FUs[i].Process)
		}
	}
	add("process id", rebuild(m.Name(), nominal, nil, fs), rp) // flows declare every process

	editPlat := func(what string, edit func(*platform.Platform)) {
		c := plat.Clone()
		edit(c)
		add(what, m, c)
	}
	editPlat("CA clock", func(c *platform.Platform) { c.CAClock++ })
	editPlat("package size", func(c *platform.Platform) { c.PackageSize++ })
	editPlat("header ticks", func(c *platform.Platform) { c.HeaderTicks++ })
	editPlat("CA-hop ticks", func(c *platform.Platform) { c.CAHopTicks++ })
	for si, s := range plat.Segments {
		editPlat("segment clock", func(c *platform.Platform) { c.Segments[si].Clock++ })
		for fi := range s.FUs {
			for _, k := range []platform.FUKind{platform.MasterSlave, platform.MasterOnly, platform.SlaveOnly} {
				if k != s.FUs[fi].Kind {
					editPlat("FU kind", func(c *platform.Platform) { c.Segments[si].FUs[fi].Kind = k })
				}
			}
		}
		if len(s.FUs) > 1 {
			editPlat("FU attachment order", func(c *platform.Platform) {
				fus := c.Segments[si].FUs
				fus[0], fus[1] = fus[1], fus[0]
			})
			if len(plat.Segments) > 1 {
				editPlat("FU segment", func(c *platform.Platform) {
					to := si + 2 // the next segment, 1-based, wrapping round
					if to > len(c.Segments) {
						to = 1
					}
					if err := c.MoveProcess(c.Segments[si].FUs[0].Process, to); err != nil {
						panic(err)
					}
				})
			}
			editPlat("segment count", func(c *platform.Platform) {
				fus := c.Segments[si].FUs
				c.Segments[si].FUs = fus[:len(fus)-1]
				c.AddSegment(c.Segments[si].Clock, fus[len(fus)-1].Process)
			})
		}
	}
	return out
}

// TestKeyMutationSweep changes each rendered value and each option
// field on its own and requires every change to move the key.
func TestKeyMutationSweep(t *testing.T) {
	bases := []keyPair{
		{"mp3", apps.MP3Model(), apps.MP3Platform3(36)},
		{"jpeg", apps.JPEGModel(), apps.JPEGPlatform3(64)},
	}
	for _, p := range scenarioPairs(t) {
		if strings.Contains(p.name, "roles") {
			bases = append(bases, p) // non-default FU kinds
		}
	}
	classes := make(map[string]int)
	for _, base := range bases {
		baseRender := render(t, base)
		baseKey := mustKey(t, base, core.Options{})
		for _, mut := range mutations(base) {
			classes[mut.name] += 0 // a class with no valid mutation is reported below
			psdfXML, psmXML, err := core.Transform(mut.m, mut.plat)
			if err != nil {
				continue // the mutation made the pair invalid
			}
			if (rendering{string(psdfXML), string(psmXML)}) == baseRender {
				t.Errorf("%s: mutating %s left the rendering unchanged", base.name, mut.name)
				continue
			}
			classes[mut.name]++
			if mustKey(t, mut, core.Options{}) == baseKey {
				t.Errorf("%s: mutating %s did not change the key", base.name, mut.name)
			}
		}
		for what, opts := range map[string]core.Options{
			"detect ticks":   {DetectTicks: 1},
			"policy":         {Policy: emulator.PolicyFIFO},
			"grant ticks":    {Overheads: emulator.Overheads{GrantTicks: 1}},
			"sync ticks":     {Overheads: emulator.Overheads{SyncTicks: 1}},
			"CA set ticks":   {Overheads: emulator.Overheads{CASetTicks: 1}},
			"CA reset ticks": {Overheads: emulator.Overheads{CAResetTicks: 1}},
		} {
			if mustKey(t, base, opts) == baseKey {
				t.Errorf("%s: option %s did not change the key", base.name, what)
			}
		}
	}
	for what, n := range classes {
		if n == 0 {
			t.Errorf("no valid %s mutation in the sweep", what)
		}
	}
}

// TestKeyDistinguishesSubHertzClocks pins the exact-clock encoding:
// the schemes round a clock to whole hertz, but the emulator times
// with the exact period, so 1000 Hz and 1000.5 Hz give different
// reports and must not share a key.
func TestKeyDistinguishesSubHertzClocks(t *testing.T) {
	m := apps.MP3Model()
	whole, half := apps.MP3Platform3(36), apps.MP3Platform3(36)
	whole.Segments[0].Clock = 1000
	half.Segments[0].Clock = 1000.5
	if render(t, keyPair{"1000 Hz", m, whole}) != render(t, keyPair{"1000.5 Hz", m, half}) {
		t.Fatal("the schemes no longer round clocks to whole hertz; revisit this test")
	}
	var reports [2][]byte
	for i, p := range []*platform.Platform{whole, half} {
		est, err := core.Estimate(m, p, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if reports[i], err = est.Report.JSON(); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(reports[0], reports[1]) {
		t.Fatal("a half-hertz clock change no longer changes the report; the test lost its point")
	}
	if mustKey(t, keyPair{"1000 Hz", m, whole}, core.Options{}) == mustKey(t, keyPair{"1000.5 Hz", m, half}, core.Options{}) {
		t.Error("pairs with different reports share a key")
	}
}

// chainPair returns an n-process chain P0 -> P1 -> ... spread over
// four segments.
func chainPair(n int) (*psdf.Model, *platform.Platform) {
	m := psdf.NewModel("chain")
	for i := 0; i+1 < n; i++ {
		m.AddFlow(psdf.Flow{Source: psdf.ProcessID(i), Target: psdf.ProcessID(i + 1), Items: 36, Order: i + 1, Ticks: 5})
	}
	p := platform.New("chain", 100*platform.MHz, 36)
	for s := 0; s < 4; s++ {
		var procs []psdf.ProcessID
		for i := s * n / 4; i < (s+1)*n/4; i++ {
			procs = append(procs, psdf.ProcessID(i))
		}
		p.AddSegment(100*platform.MHz, procs...)
	}
	return m, p
}

// TestKeyScalesLinearly fences the key's cost on large pairs: it runs
// on the request goroutine, so an 8× larger chain must cost well
// under 20× as much (quadratic keys have measured 25–40×). The two
// sizes are timed alternately and each keeps its fastest round, so
// CPU contention from other tests hits both sides alike.
func TestKeyScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	var pairs [2]keyPair
	for i, n := range [2]int{2000, 16000} {
		m, p := chainPair(n)
		pairs[i] = keyPair{m: m, plat: p}
	}
	best := [2]time.Duration{1<<63 - 1, 1<<63 - 1}
	for round := 0; round < 7; round++ {
		for i, p := range pairs {
			runtime.GC() // start each run without the previous one's garbage
			start := time.Now()
			if _, err := core.Key(p.m, p.plat, core.Options{}); err != nil {
				t.Fatal(err)
			}
			best[i] = min(best[i], time.Since(start))
		}
	}
	small, large := best[0], best[1]
	ratio := float64(large) / float64(small)
	t.Logf("2k processes: %v, 16k: %v (%.1f×)", small, large, ratio)
	if ratio >= 20 {
		t.Errorf("16k-process key takes %v, %.1f× the 2k-process %v; want < 20×", large, ratio, small)
	}
}

// TestKeyAllocs fences the key's allocations on the MP3 pair
// (re-rendering both schemes took 755).
func TestKeyAllocs(t *testing.T) {
	m, p := apps.MP3Model(), apps.MP3Platform3(36)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := core.Key(m, p, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 120 {
		t.Errorf("Key allocates %.0f times per call on MP3, want <= 120", allocs)
	}
}

// BenchmarkKey measures key derivation on the MP3 pair and over the
// first 64 servable conformance pairs, parsed as the service sees
// them.
func BenchmarkKey(b *testing.B) {
	b.Run("mp3", func(b *testing.B) {
		m, p := apps.MP3Model(), apps.MP3Platform3(36)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Key(m, p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serve64", func(b *testing.B) {
		names, docs := servedSchemes(b, 64)
		pairs := make([]keyPair, 64)
		for i := range pairs {
			pairs[i] = parsePair(b, names[i], docs[i][0], docs[i][1])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := core.Key(p.m, p.plat, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzKeyMatchesRendering runs the oracle on two parsed scheme pairs:
// they share a key exactly when their schemes render equally, and a
// pair the renderer refuses, Key refuses with the same error. Parsed
// clocks are whole hertz, so the exact-clock encoding and the rounded
// rendering agree on every input.
func FuzzKeyMatchesRendering(f *testing.F) {
	_, docs := servedSchemes(f, 4)
	golden := docs[len(docs)-1]
	f.Add(golden[0], golden[1], reencode(golden[0], 1), reencode(golden[1], 1))
	for i := range docs[:len(docs)-1] {
		f.Add(golden[0], golden[1], docs[i][0], docs[i][1])
		f.Add(docs[i][0], docs[i][1], reencode(docs[i][0], i), reencode(docs[i][1], i))
	}
	f.Fuzz(func(t *testing.T, psdfA, psmA, psdfB, psmB []byte) {
		var (
			rs   [2]rendering
			keys [2]string
		)
		for i, d := range [2][2][]byte{{psdfA, psmA}, {psdfB, psmB}} {
			m, err := schema.ParsePSDF(d[0])
			if err != nil {
				return
			}
			plat, err := schema.ParsePSM(d[1])
			if err != nil {
				return
			}
			psdfXML, psmXML, renderErr := core.Transform(m, plat)
			key, keyErr := core.Key(m, plat, core.Options{})
			if (renderErr == nil) != (keyErr == nil) || renderErr != nil && renderErr.Error() != keyErr.Error() {
				t.Fatalf("pair %d: Key error %v, renderer error %v", i, keyErr, renderErr)
			}
			if renderErr != nil {
				return
			}
			rs[i], keys[i] = rendering{string(psdfXML), string(psmXML)}, key
		}
		if (rs[0] == rs[1]) != (keys[0] == keys[1]) {
			t.Fatalf("renderings equal: %v, keys equal: %v", rs[0] == rs[1], keys[0] == keys[1])
		}
	})
}
