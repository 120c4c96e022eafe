package analyze

import (
	"fmt"
	"sort"
	"strings"

	"segbus/internal/psdf"
)

// Stable diagnostic codes of the congestion analyzer.
const (
	// CodeBUImbalance flags a border unit carrying disproportionate
	// crossing traffic compared to the quietest one, reproducing the
	// paper's conclusion that the allocation around the hot BU should
	// be rebalanced (warning).
	CodeBUImbalance = "SB301"

	// CodeSegmentImbalance flags a segment bus whose static load
	// dwarfs the quietest segment's (warning).
	CodeSegmentImbalance = "SB302"

	// CodeUnusedSegmentation notes a multi-segment platform with no
	// inter-segment traffic at all: the segmentation buys nothing for
	// this application (info).
	CodeUnusedSegmentation = "SB303"
)

// Imbalance thresholds: a hot element must carry at least minHotLoad
// units and hotColdRatio times the quietest element's load (or any
// load when the quietest is fully idle) before the lint fires, so
// small or naturally skewed systems stay quiet.
const (
	minHotCrossings = 8
	hotColdRatio    = 4
)

// The congestion analyzer statically reproduces the placement
// discussion of the paper's conclusion: the 3-segment MP3 allocation
// funnels 32 crossing packages through BU12 against a single package
// through BU23, so migrating border processes or splitting their
// traffic would level the load. It needs only the static figures the
// bounds analyzer publishes (one Bounds per run, Pass.bounds), not an
// emulation run (package stats performs the
// dynamic, post-run counterpart).
func init() {
	Register(&Analyzer{
		Name:          "congestion",
		Doc:           "border-unit and segment load imbalance, placement hints",
		NeedsPlatform: true,
		Run:           runCongestion,
	})
}

func runCongestion(pass *Pass) {
	b := pass.bounds()
	if b == nil {
		return // structural findings cover invalid inputs
	}
	checkBUImbalance(pass, b)
	checkSegmentImbalance(pass, b)
	checkUnusedSegmentation(pass, b)
}

func checkBUImbalance(pass *Pass, b *Bounds) {
	if len(b.Crossings) < 2 {
		return // a single BU has nothing to be imbalanced against
	}
	hot, cold := b.Crossings[0], b.Crossings[0]
	for _, c := range b.Crossings[1:] {
		if c.Peak() > hot.Peak() {
			hot = c
		}
		if c.Peak() < cold.Peak() {
			cold = c
		}
	}
	if hot.Peak() < minHotCrossings {
		return
	}
	if cold.Peak() > 0 && hot.Peak() < hotColdRatio*cold.Peak() {
		return
	}
	contributors := hotContributors(pass, hot.Name)
	msg := fmt.Sprintf(
		"crossing traffic imbalance: %s carries %d packages (%d rightward, %d leftward) while %s carries %d",
		hot.Name, hot.Peak(), hot.Rightward, hot.Leftward, cold.Name, cold.Peak())
	if len(contributors) > 0 {
		msg += "; heaviest contributors: " + strings.Join(contributors, ", ") +
			" — candidates for migration or granularity rebalancing"
	}
	pass.Reportf(CodeBUImbalance, SeverityWarning, hot.Name, "%s", msg)
}

// hotContributors names the processes responsible for the most
// crossing packages through the named border unit, heaviest first
// ("P3 (31)"), capped at three.
func hotContributors(pass *Pass, buName string) []string {
	m, plat := pass.Model, pass.Platform
	s := plat.PackageSize
	contrib := make(map[psdf.ProcessID]int)
	for _, f := range m.Flows() {
		src, dst, _ := plat.FlowSegments(f)
		route, _ := plat.Route(src, dst)
		for _, bu := range route {
			if bu.Name() != buName {
				continue
			}
			pk := f.Packages(s)
			contrib[f.Source] += pk
			if f.Target != psdf.SystemOutput {
				contrib[f.Target] += pk
			}
		}
	}
	procs := make([]psdf.ProcessID, 0, len(contrib))
	for p := range contrib {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool {
		if contrib[procs[i]] != contrib[procs[j]] {
			return contrib[procs[i]] > contrib[procs[j]]
		}
		return procs[i] < procs[j]
	})
	if len(procs) > 3 {
		procs = procs[:3]
	}
	out := make([]string, len(procs))
	for i, p := range procs {
		out[i] = fmt.Sprintf("%s (%d)", p, contrib[p])
	}
	return out
}

func checkSegmentImbalance(pass *Pass, b *Bounds) {
	if len(b.Segments) < 2 {
		return
	}
	hot, cold := b.Segments[0], b.Segments[0]
	for _, s := range b.Segments[1:] {
		if s.BusyPs > hot.BusyPs {
			hot = s
		}
		if s.BusyPs < cold.BusyPs {
			cold = s
		}
	}
	if hot.BusyPs == 0 || hot.BusyPs < hotColdRatio*cold.BusyPs {
		return
	}
	pass.Reportf(CodeSegmentImbalance, SeverityWarning, fmt.Sprintf("Segment %d", hot.Segment),
		"static bus load imbalance: Segment %d is busy %d ps while Segment %d is busy %d ps — the allocation leaves most of the platform idle",
		hot.Segment, hot.BusyPs, cold.Segment, cold.BusyPs)
}

func checkUnusedSegmentation(pass *Pass, b *Bounds) {
	if len(pass.Platform.Segments) < 2 {
		return
	}
	for _, c := range b.Crossings {
		if c.Rightward > 0 || c.Leftward > 0 {
			return
		}
	}
	pass.Reportf(CodeUnusedSegmentation, SeverityInfo, "CA",
		"no inter-segment traffic: every flow stays inside its segment, the %d-segment partition is unused",
		len(pass.Platform.Segments))
}
