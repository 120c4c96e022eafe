package analyze

import (
	"sort"

	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// oraclePerPackageBounds is computeBounds as it was before the closed
// form: it walks every package of every flow and keeps its per-segment,
// per-BU and per-chain totals in maps. computeBounds must return
// exactly its figures (TestBoundsMatchPerPackageOracle, FuzzAnalyze
// through CheckAgreement), wrapped int64 sums included.
func oraclePerPackageBounds(m *psdf.Model, plat *platform.Platform) *Bounds {
	s := plat.PackageSize
	nominal := m.NominalPackageSize()
	header := int64(plat.HeaderTicks)
	caPeriod := plat.CAClock.PeriodPs()

	periods := make(map[int]int64, len(plat.Segments))
	maxPeriod := caPeriod
	for _, seg := range plat.Segments {
		periods[seg.Index] = seg.Clock.PeriodPs()
		if periods[seg.Index] > maxPeriod {
			maxPeriod = periods[seg.Index]
		}
	}

	b := &Bounds{PackageSize: s}
	segTicks := make(map[int]int64, len(plat.Segments))
	// Every border unit gets an entry, so fully idle BUs still show
	// up as the cold side of an imbalance.
	crossing := make(map[string]*BUCrossing)
	var crossOrder []string
	for _, bu := range plat.BUs() {
		name := bu.Name()
		crossing[name] = &BUCrossing{Name: name}
		crossOrder = append(crossOrder, name)
	}

	// Serial per-process emission chains, per stage.
	var orders []int
	seenOrder := make(map[int]bool)
	chains := make(map[int]map[psdf.ProcessID]int64)

	var upperWork int64
	for _, f := range m.Flows() {
		if !seenOrder[f.Order] {
			seenOrder[f.Order] = true
			orders = append(orders, f.Order)
			chains[f.Order] = make(map[psdf.ProcessID]int64)
		}
		srcSeg := plat.SegmentOf(f.Source)
		dstSeg := srcSeg
		if f.Target != psdf.SystemOutput {
			dstSeg = plat.SegmentOf(f.Target)
		}
		route, rightward := plat.Route(srcSeg, dstSeg)
		hops := int64(len(route))
		pk := f.Packages(s)
		b.TotalPackages += pk

		for _, bu := range route {
			c := crossing[bu.Name()]
			if rightward {
				c.Rightward += pk
			} else {
				c.Leftward += pk
			}
		}

		for pkg := 1; pkg <= pk; pkg++ {
			items := int64(f.PackageItems(s, pkg))
			srcPeriod := periods[srcSeg]
			// FU processing plus the source-segment transaction (an
			// intra-segment transfer or the fill into the first BU).
			latency := f.PackageTicks(s, nominal, pkg)*srcPeriod + (header+items)*srcPeriod
			segTicks[srcSeg] += header + items
			// CA circuit set-up, charged per hop on the CA clock.
			latency += hops * int64(plat.CAHopTicks) * caPeriod
			b.CASetupTicks += hops * int64(plat.CAHopTicks)
			// One unload transaction per crossed BU, charged on the
			// entered segment's bus and clock.
			for _, bu := range route {
				entered := bu.Right
				if !rightward {
					entered = bu.Left
				}
				segTicks[entered] += header + items
				latency += (header + items) * periods[entered]
			}
			chains[f.Order][f.Source] += latency
			// Full-serialisation allowance: the package's isolated
			// latency plus a clock-edge alignment per scheduling step
			// (compute start, grant, per-hop CA grant and unload
			// grant, delivery), each at most one period of the
			// slowest clock.
			upperWork += latency + (4+3*hops)*maxPeriod
		}
	}

	sort.Ints(orders)
	for _, t := range orders {
		var stageMax int64
		for _, total := range chains[t] {
			if total > stageMax {
				stageMax = total
			}
		}
		b.CriticalPathPs += stageMax
	}

	for _, seg := range plat.Segments {
		ticks := segTicks[seg.Index]
		busy := ticks * periods[seg.Index]
		b.Segments = append(b.Segments, SegmentLoad{Segment: seg.Index, BusTicks: ticks, BusyPs: busy})
		if busy > b.BusLoadPs {
			b.BusLoadPs = busy
		}
	}
	b.LowerPs = b.CriticalPathPs
	if b.BusLoadPs > b.LowerPs {
		b.LowerPs = b.BusLoadPs
	}
	// End detection: the monitor adds DetectTicks CA ticks after the
	// last activity, and every arbiter's tick total is rounded up to
	// a full period.
	b.UpperPs = upperWork + (emulator.DefaultDetectTicks+1)*caPeriod + maxPeriod

	for _, name := range crossOrder {
		b.Crossings = append(b.Crossings, *crossing[name])
	}
	return b
}
