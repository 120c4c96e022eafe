package emulator_test

// Machine-reuse correctness: a warm (pooled) Machine must be
// indistinguishable from a fresh one — byte-identical reports,
// identical errors — no matter what ran on it before, including runs
// that failed, deadlocked or hit the step limit. These tests are the
// emulator-level half of the reuse battery; the conform `pooled`
// oracle and the serve pool stress cover the stack above.

import (
	"bytes"
	"math/rand"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// reuseCase is one (model, platform, config) triple of the mixed
// workload the reuse tests interleave on a single machine.
type reuseCase struct {
	name string
	m    *psdf.Model
	plat *platform.Platform
	cfg  emulator.Config
}

// reuseWorkload builds a diverse mix: the paper's applications on
// their platforms, synthetic shapes, random models, refined and
// estimation configs, different package sizes — so consecutive runs
// on the shared machine differ in segment count, FU count, program
// length and buffer topology.
func reuseWorkload(t *testing.T) []reuseCase {
	t.Helper()
	refined := emulator.Config{Overheads: emulator.Overheads{GrantTicks: 1, SyncTicks: 2, CASetTicks: 3, CAResetTicks: 1}}
	cases := []reuseCase{
		{"mp3-p3", apps.MP3Model(), apps.MP3Platform3(36), emulator.Config{}},
		{"mp3-p2-refined", apps.MP3Model(), apps.MP3Platform2(36), refined},
		{"mp3-p1", apps.MP3Model(), apps.MP3Platform1(36), emulator.Config{}},
		{"mp3-moved", apps.MP3Model(), apps.MP3Platform3MovedP9(48), emulator.Config{}},
		{"jpeg", apps.JPEGModel(), apps.JPEGPlatform3(64), refined},
	}
	pipe := apps.Pipeline(4, 120, 7)
	pp := platform.New("pipe", 100*platform.MHz, 40)
	pp.AddSegment(100*platform.MHz, 0, 1)
	pp.AddSegment(50*platform.MHz, 2, 3, 4)
	cases = append(cases, reuseCase{"pipeline", pipe, pp, emulator.Config{}})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 6; i++ {
		m := apps.RandomModel(rng, 4, 3, 32)
		plat := apps.RandomPlatform(rng, m, 4, 32)
		cfg := emulator.Config{}
		if i%2 == 1 {
			cfg = refined
		}
		cases = append(cases, reuseCase{name: "random", m: m, plat: plat, cfg: cfg})
	}
	return cases
}

// reportBytes runs one case on the given runner and returns the report
// JSON (nil on error) and the error string ("" on success).
func reportBytes(t *testing.T, run func() (*emulator.Report, error)) ([]byte, string) {
	t.Helper()
	r, err := run()
	if err != nil {
		return nil, err.Error()
	}
	b, err := r.JSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b, ""
}

// TestMachineReuseByteIdentical interleaves the whole workload through
// one shared machine, twice, asserting every warm report is
// byte-identical to a fresh-machine run of the same case.
func TestMachineReuseByteIdentical(t *testing.T) {
	cases := reuseWorkload(t)
	mc := emulator.NewMachine()
	for pass := 0; pass < 2; pass++ {
		for i, c := range cases {
			fresh, freshErr := reportBytes(t, func() (*emulator.Report, error) {
				return emulator.Run(c.m, c.plat, c.cfg)
			})
			warm, warmErr := reportBytes(t, func() (*emulator.Report, error) {
				return mc.Run(c.m, c.plat, c.cfg)
			})
			if warmErr != freshErr {
				t.Fatalf("pass %d case %d (%s): warm err %q, fresh err %q", pass, i, c.name, warmErr, freshErr)
			}
			if !bytes.Equal(warm, fresh) {
				t.Fatalf("pass %d case %d (%s): warm report differs from fresh", pass, i, c.name)
			}
		}
	}
}

// dirtyOps is the op alphabet of the dirty-machine property test. Each
// op leaves the shared machine in some state — completed, aborted
// mid-run by the step limit, stuck in a deadlock, or explicitly reset
// — and the next op must be unaffected.
const (
	opRun = iota
	opAbort
	opDeadlock
	opReset
	numOps
)

// deadlockCase returns a model that passes static validation but
// cannot make progress at run time (a same-order firing cycle).
func deadlockCase() reuseCase {
	m := psdf.NewModel("cycle")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 36, Order: 2, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 2, Target: 1, Items: 36, Order: 2, Ticks: 5})
	p := platform.New("one-seg", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0, 1, 2)
	return reuseCase{name: "deadlock", m: m, plat: p, cfg: emulator.Config{}}
}

// applyOp executes one op of a dirty-machine sequence on the shared
// machine and checks it against a fresh-machine reference.
func applyOp(t *testing.T, mc *emulator.Machine, op int, c reuseCase) {
	t.Helper()
	switch op % numOps {
	case opReset:
		mc.Reset()
		return
	case opAbort:
		// A tiny step limit aborts the emulation mid-flight, leaving
		// events queued, buffers occupied and requests pending.
		c.cfg.StepLimit = 7
	case opDeadlock:
		c = deadlockCase()
	}
	fresh, freshErr := reportBytes(t, func() (*emulator.Report, error) {
		return emulator.Run(c.m, c.plat, c.cfg)
	})
	warm, warmErr := reportBytes(t, func() (*emulator.Report, error) {
		return mc.Run(c.m, c.plat, c.cfg)
	})
	if warmErr != freshErr {
		t.Fatalf("op %d case %s: warm err %q, fresh err %q", op%numOps, c.name, warmErr, freshErr)
	}
	if !bytes.Equal(warm, fresh) {
		t.Fatalf("op %d case %s: warm report differs from fresh", op%numOps, c.name)
	}
}

// TestMachineReuseDirty drives random op sequences — runs, mid-run
// aborts, deadlocks, resets — through one shared machine, comparing
// every run against a fresh machine. Reset must be total: no op may
// observe anything a previous (possibly failed) op left behind.
func TestMachineReuseDirty(t *testing.T) {
	cases := reuseWorkload(t)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mc := emulator.NewMachine()
		for step := 0; step < 24; step++ {
			applyOp(t, mc, rng.Intn(numOps), cases[rng.Intn(len(cases))])
		}
	}
}

// FuzzMachineReuse fuzzes dirty-machine op sequences: each input byte
// selects an (op, case) pair, and every run through the shared
// machine must match a fresh machine bit for bit.
func FuzzMachineReuse(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0})
	f.Add([]byte{1, 1, 1, 0})
	f.Add([]byte{2, 0, 2, 0})
	f.Add([]byte{3, 3, 0})
	f.Add([]byte{byte(opAbort), byte(opDeadlock), byte(opAbort), byte(opRun)})
	var cases []reuseCase
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 16 {
			ops = ops[:16]
		}
		if cases == nil {
			cases = reuseWorkload(t)
		}
		mc := emulator.NewMachine()
		for _, b := range ops {
			applyOp(t, mc, int(b)%numOps, cases[(int(b)/numOps)%len(cases)])
		}
	})
}

// TestMachineResetAllocs pins the arena guarantee: once warm, Reset
// performs zero heap allocations.
func TestMachineResetAllocs(t *testing.T) {
	mc := emulator.NewMachine()
	m, plat := apps.MP3Model(), apps.MP3Platform3(36)
	if _, err := mc.Run(m, plat, emulator.Config{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() { mc.Reset() })
	if allocs != 0 {
		t.Errorf("Reset allocates %v per call, want 0", allocs)
	}
}

// TestMachineWarmRunAllocs pins the arena win: a warm machine, which
// reuses its flat arrays, kernel heap and queues, allocates strictly
// less per MP3 run than a fresh one (what remains is the schedule
// extraction and the report assembly). TestFreshMachineRunAllocs pins
// the fresh run's own count.
func TestMachineWarmRunAllocs(t *testing.T) {
	m, plat := apps.MP3Model(), apps.MP3Platform3(36)
	fresh := testing.AllocsPerRun(10, func() {
		if _, err := emulator.Run(m, plat, emulator.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	mc := emulator.NewMachine()
	if _, err := mc.Run(m, plat, emulator.Config{}); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(10, func() {
		if _, err := mc.Run(m, plat, emulator.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if warm >= fresh {
		t.Errorf("warm run allocates %v, fresh %v — want warm < fresh", warm, fresh)
	}
}
