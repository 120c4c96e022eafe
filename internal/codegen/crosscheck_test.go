package codegen_test

// Cross-module consistency: the generated arbiter programs are a
// static prediction of exactly the work the emulator performs. Every
// grant slot must correspond one-to-one with an emulated bus
// transaction, so the per-arbiter slot counts must equal the
// emulator's monitoring counters.

import (
	"math/rand"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/codegen"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

func crossCheck(t *testing.T, label string, m *psdf.Model, plat *platform.Platform) {
	t.Helper()
	prog, err := codegen.Generate(sched.NewPair(m, plat))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	r, err := emulator.Run(m, plat, emulator.Config{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(prog.CA) != r.CA.InterRequests {
		t.Errorf("%s: CA slots %d != emulated CA requests %d", label, len(prog.CA), r.CA.InterRequests)
	}
	for _, sa := range prog.SAs {
		var fills, intras, forwards int
		for _, g := range sa.Grants {
			switch g.Kind {
			case codegen.GrantIntra:
				intras++
			case codegen.GrantFill:
				fills++
			case codegen.GrantForward:
				forwards++
			}
		}
		rs := r.SA(sa.Segment)
		if fills != rs.InterRequests {
			t.Errorf("%s: SA%d fill slots %d != emulated inter requests %d",
				label, sa.Segment, fills, rs.InterRequests)
		}
		if intras+forwards != rs.IntraRequests {
			t.Errorf("%s: SA%d intra+forward slots %d != emulated intra requests %d",
				label, sa.Segment, intras+forwards, rs.IntraRequests)
		}
	}
}

func TestProgramPredictsEmulatorMP3(t *testing.T) {
	m := apps.MP3Model()
	crossCheck(t, "mp3/3seg/s36", m, apps.MP3Platform3(36))
	crossCheck(t, "mp3/3seg/s18", m, apps.MP3Platform3(18))
	crossCheck(t, "mp3/2seg", m, apps.MP3Platform2(36))
	crossCheck(t, "mp3/p9moved", m, apps.MP3Platform3MovedP9(36))
	crossCheck(t, "jpeg/3seg", apps.JPEGModel(), apps.JPEGPlatform3(apps.JPEGPackageSize))
}

func TestProgramPredictsEmulatorRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		m := apps.RandomModel(rng, 4, 4, 36)
		plat := apps.RandomPlatform(rng, m, 4, 36)
		crossCheck(t, "random", m, plat)
	}
}
