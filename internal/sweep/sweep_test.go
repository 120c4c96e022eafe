package sweep

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"segbus/internal/apps"
	"segbus/internal/emulator"
	"segbus/internal/obs"
	"segbus/internal/platform"
)

func TestPackageSizesCurve(t *testing.T) {
	m := apps.MP3Model()
	base := apps.MP3Platform3(36)
	c := PackageSizes(m, base, []int{9, 18, 36, 72, 144})
	if len(c.Points) != 5 {
		t.Fatalf("points = %d", len(c.Points))
	}
	for _, pt := range c.Points {
		if pt.Err != nil {
			t.Fatalf("s=%d: %v", pt.Value, pt.Err)
		}
		if pt.ExecPs <= 0 {
			t.Fatalf("s=%d: no exec time", pt.Value)
		}
	}
	// The MP3 model's compute work is packaging-independent (nominal
	// size set), so execution time must fall monotonically as the
	// package grows: fewer per-package overheads.
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].ExecPs >= c.Points[i-1].ExecPs {
			t.Errorf("exec not decreasing at s=%d: %d vs %d",
				c.Points[i].Value, c.Points[i].ExecPs, c.Points[i-1].ExecPs)
		}
	}
	// The base platform must be untouched.
	if base.PackageSize != 36 {
		t.Error("base platform mutated")
	}
}

func TestHeaderTicksMonotone(t *testing.T) {
	m := apps.MP3Model()
	c := HeaderTicks(m, apps.MP3Platform3(36), []int{0, 10, 25, 50})
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Err != nil {
			t.Fatal(c.Points[i].Err)
		}
		if c.Points[i].ExecPs <= c.Points[i-1].ExecPs {
			t.Errorf("header %d not slower than %d", c.Points[i].Value, c.Points[i-1].Value)
		}
	}
}

func TestCAHopTicksMonotone(t *testing.T) {
	m := apps.MP3Model()
	c := CAHopTicks(m, apps.MP3Platform3(36), []int{0, 25, 100})
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Err != nil {
			t.Fatal(c.Points[i].Err)
		}
		if c.Points[i].ExecPs <= c.Points[i-1].ExecPs {
			t.Errorf("hop cost %d not slower than %d", c.Points[i].Value, c.Points[i-1].Value)
		}
	}
}

func TestSegmentClockFasterIsFaster(t *testing.T) {
	m := apps.MP3Model()
	// Segment 2 hosts the long output chain: speeding it up must help.
	c, err := SegmentClock(m, apps.MP3Platform3(36), 2,
		[]platform.Hz{60 * platform.MHz, 98 * platform.MHz, 200 * platform.MHz})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Err != nil {
			t.Fatal(c.Points[i].Err)
		}
		if c.Points[i].ExecPs >= c.Points[i-1].ExecPs {
			t.Errorf("clock %d not faster than %d", c.Points[i].Value, c.Points[i-1].Value)
		}
	}
	if _, err := SegmentClock(m, apps.MP3Platform3(36), 9, nil); err == nil {
		t.Error("bad segment accepted")
	}
}

func TestCurveRenderings(t *testing.T) {
	m := apps.MP3Model()
	c := PackageSizes(m, apps.MP3Platform3(36), []int{18, 36})
	csv := c.CSV()
	if !strings.HasPrefix(csv, "packageSize,exec_us\n") || !strings.Contains(csv, "36,") {
		t.Errorf("CSV:\n%s", csv)
	}
	table := c.Table()
	if !strings.Contains(table, "exec (us)") {
		t.Errorf("table:\n%s", table)
	}
	// Failed points render gracefully.
	bad := PackageSizes(m, apps.MP3Platform3(36), []int{0})
	if bad.Points[0].Err == nil {
		t.Fatal("package size 0 accepted")
	}
	if !strings.Contains(bad.CSV(), "0,\n") || !strings.Contains(bad.Table(), "error") {
		t.Error("failed point rendering wrong")
	}
}

// TestCurveMatchesFreshRuns pins every curve to fresh emulations of
// the variant it names, at several workers, so each sweep sets its own
// field on its own clone of the base platform.
func TestCurveMatchesFreshRuns(t *testing.T) {
	m := apps.MP3Model()
	base := apps.MP3Platform3(36)
	for _, workers := range []int{1, 3} {
		o := Options{Workers: workers, Seed: 5}
		clock, err := SegmentClock(m, base, 2, []platform.Hz{60 * platform.MHz, 200 * platform.MHz}, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			c     Curve
			param string
			set   func(p *platform.Platform, v int64)
		}{
			{PackageSizes(m, base, []int{12, 18, 72}, o), "packageSize", func(p *platform.Platform, v int64) { p.PackageSize = int(v) }},
			{HeaderTicks(m, base, []int{0, 25}, o), "headerTicks", func(p *platform.Platform, v int64) { p.HeaderTicks = int(v) }},
			{CAHopTicks(m, base, []int{0, 25}, o), "caHopTicks", func(p *platform.Platform, v int64) { p.CAHopTicks = int(v) }},
			{clock, "segment2ClockHz", func(p *platform.Platform, v int64) { p.Segment(2).Clock = platform.Hz(v) }},
		} {
			if tc.c.Param != tc.param {
				t.Errorf("curve named %q, want %q", tc.c.Param, tc.param)
			}
			for _, pt := range tc.c.Points {
				p := base.Clone()
				tc.set(p, pt.Value)
				want, err := emulator.Run(m, p, emulator.Config{})
				if err != nil || pt.Err != nil {
					t.Fatalf("workers=%d %s=%d: %v / %v", workers, tc.param, pt.Value, err, pt.Err)
				}
				if pt.ExecPs != int64(want.ExecutionTimePs) {
					t.Errorf("workers=%d %s=%d: exec %d ps, fresh run %d ps", workers, tc.param, pt.Value, pt.ExecPs, want.ExecutionTimePs)
				}
			}
		}
	}
	if !reflect.DeepEqual(base, apps.MP3Platform3(36)) {
		t.Error("base platform mutated")
	}
}

func TestSweepHeartbeat(t *testing.T) {
	var buf syncBuffer
	hb := obs.NewHeartbeat(&buf, "sample", time.Nanosecond, 3)
	c := PackageSizes(apps.MP3Model(), apps.MP3Platform3(36), []int{18, 36, 72},
		Options{Heartbeat: hb})
	if len(c.Points) != 3 {
		t.Fatalf("points = %d", len(c.Points))
	}
	out := buf.String()
	if !strings.Contains(out, "(done)") {
		t.Errorf("no final heartbeat line:\n%s", out)
	}
	if !strings.Contains(out, "3/3 samples") {
		t.Errorf("final line lacks totals:\n%s", out)
	}
	// Without options nothing is printed and nothing panics.
	PackageSizes(apps.MP3Model(), apps.MP3Platform3(36), []int{36})
}

// syncBuffer is a strings.Builder safe for the heartbeat ticks of
// concurrent samples.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
