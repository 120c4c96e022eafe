package sweep

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"segbus/internal/apps"
	"segbus/internal/emulator"
	"segbus/internal/obs"
	"segbus/internal/platform"
	"segbus/internal/psdf"
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

// TestPackageSizesInvalidSizes: non-positive sizes are priced without
// panicking, fail with their validation error, and leave the valid
// point's estimate untouched, whatever their position in the sweep.
func TestPackageSizesInvalidSizes(t *testing.T) {
	m := apps.MP3Model()
	for _, sizes := range [][]int{{0, -3, 36}, {36, -3, 0}} {
		c := PackageSizes(m, apps.MP3Platform3(36), sizes)
		for i, pt := range c.Points {
			if pt.Value != int64(sizes[i]) {
				t.Fatalf("%v: point %d has value %d", sizes, i, pt.Value)
			}
			if sizes[i] == 36 {
				if pt.Err != nil || pt.ExecPs != 490386897 {
					t.Errorf("%v: s=36 gave %d ps, %v; want 490386897 ps", sizes, pt.ExecPs, pt.Err)
				}
				continue
			}
			want := fmt.Sprintf("platform: SBP-3seg: SB021: non-positive package size %d", sizes[i])
			if pt.Err == nil || !strings.Contains(pt.Err.Error(), want) {
				t.Errorf("%v: s=%d error %v, want %q", sizes, sizes[i], pt.Err, want)
			}
		}
	}
}

// TestScheduleDoesNotChangeCurve: the dispatch order and the
// work-stealing schedule decide only who evaluates which point, so at
// every worker count and seed the curve equals fresh serial
// emulations, point by point and in input order.
func TestScheduleDoesNotChangeCurve(t *testing.T) {
	m, err := psdf.Repeat(apps.MP3Model(), 4)
	if err != nil {
		t.Fatal(err)
	}
	base := apps.MP3Platform3(36)
	sizes := []int{1, 2, 3, 4, 6, 8, 12, 16}
	want := make([]int64, len(sizes))
	for i, s := range sizes {
		p := base.Clone()
		p.PackageSize = s
		r, err := emulator.Run(m, p, emulator.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = int64(r.ExecutionTimePs)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, seed := range []int64{1, 7919} {
			c := PackageSizes(m, base, sizes, Options{Workers: workers, Seed: seed})
			for i, pt := range c.Points {
				if pt.Err != nil || pt.Value != int64(sizes[i]) || pt.ExecPs != want[i] {
					t.Errorf("workers=%d seed=%d point %d: %d=%d ps (%v), want %d=%d ps",
						workers, seed, i, pt.Value, pt.ExecPs, pt.Err, sizes[i], want[i])
				}
			}
		}
	}
}

// TestDispatchOrder pins the pricing and the layout StealRun consumes:
// with one worker the tail pops run the variants costliest first,
// equal prices in input order, and with w workers the w costliest
// variants head the w deques.
func TestDispatchOrder(t *testing.T) {
	flows := apps.MP3Model().Flows()
	if got := packageCount(flows, 0) + packageCount(flows, -3); got != 0 {
		t.Errorf("non-positive sizes priced at %d, want 0", got)
	}
	if a, b := packageCount(flows, 1), packageCount(flows, 2); a <= b {
		t.Errorf("s=1 priced %d, not above s=2 at %d", a, b)
	}
	// dispatched returns the variants in the order a single worker's
	// tail pops run them.
	dispatched := func(order []int) []int {
		out := make([]int, len(order))
		for j, v := range order {
			out[len(order)-1-j] = v
		}
		return out
	}
	for _, tc := range []struct {
		prices []int64
		want   []int
	}{
		{[]int64{10, 40, 20, 30}, []int{1, 3, 2, 0}},
		{[]int64{5, 5, 5, 5}, []int{0, 1, 2, 3}}, // header, CA-hop and clock sweeps
		{[]int64{1, 9, 1, 9, 0}, []int{1, 3, 0, 2, 4}},
		{nil, []int{}},
	} {
		if got := dispatched(dispatchOrder(tc.prices)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("prices %v dispatched %v, want %v", tc.prices, got, tc.want)
		}
	}
	// Round-robin deal of 8 indices over 3 workers: worker k's deque is
	// k, k+3, …, and its first pop is its last index.
	prices := []int64{80, 10, 70, 20, 60, 30, 50, 40}
	order := dispatchOrder(prices)
	first := map[int64]bool{}
	for k := 0; k < 3; k++ {
		last := k
		for last+3 < len(order) {
			last += 3
		}
		first[prices[order[last]]] = true
	}
	if !first[80] || !first[70] || !first[60] {
		t.Errorf("first pops priced %v, want the three costliest", first)
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
