// Package codegen implements the paper's stated future work (section
// 5): arbiter code generation for the implementation of application
// schedules.
//
// The SegBus arbiters realise the application's data flow: each
// segment arbiter grants its local masters in the order the PSDF
// schedule prescribes, and the central arbiter connects segment chains
// for the inter-segment transfers in schedule order. This package
// derives, from a (PSDF model, platform) pair, the per-arbiter grant
// programs and renders them either as a human-readable schedule
// listing or as synthesizable VHDL skeletons matching the platform's
// implementation language (the SegBus platform itself is a VHDL
// design).
package codegen

import (
	"fmt"
	"strings"

	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// GrantKind classifies one arbiter grant slot.
type GrantKind int

// Grant kinds.
const (
	GrantIntra   GrantKind = iota // local master -> local slave
	GrantFill                     // local master -> border unit (inter-segment start)
	GrantForward                  // border unit -> local lines (delivery or next hop)
)

// String implements fmt.Stringer.
func (k GrantKind) String() string {
	switch k {
	case GrantIntra:
		return "intra"
	case GrantFill:
		return "fill"
	case GrantForward:
		return "forward"
	}
	return fmt.Sprintf("GrantKind(%d)", int(k))
}

// Grant is one slot of a segment arbiter's program: grant the bus to
// Master (or to the border unit From) for one package of Flow.
type Grant struct {
	Kind    GrantKind
	Stage   int            // schedule stage index (0-based)
	Order   int            // the stage's ordering number T
	Flow    psdf.Flow      // the flow the package belongs to
	Package int            // 1-based package index within the flow
	Master  psdf.ProcessID // granted master (Kind != GrantForward)
	FromBU  string         // granting side BU name (Kind == GrantForward)
	Deliver bool           // forward delivers to the local slave
	ToBU    string         // fill/forward destination BU ("" for deliveries)
	ToSlave psdf.ProcessID // final target of the package
}

// SAProgram is the generated grant program of one segment arbiter.
type SAProgram struct {
	Segment int
	Grants  []Grant
}

// CAGrant is one slot of the central arbiter's program: connect the
// chain from segment Src to segment Dst for one package.
type CAGrant struct {
	Stage   int
	Order   int
	Flow    psdf.Flow
	Package int
	Src     int
	Dst     int
	Hops    int
}

// Program is the complete generated arbitration schedule.
type Program struct {
	Application string
	Platform    string
	PackageSize int
	SAs         []SAProgram // ascending by segment
	CA          []CAGrant
}

// Generate derives the arbiter programs of an admitted pair. Its
// model, platform and mapping checks must pass (the first failure is
// returned as-is); the FU interface roles are not checked.
func Generate(p *sched.Pair) (*Program, error) {
	for _, err := range [...]error{p.ModelErr, p.PlatformErr, p.MappingErr} {
		if err != nil {
			return nil, err
		}
	}
	s, err := p.Schedule()
	if err != nil {
		return nil, err
	}
	m, plat := p.Model, p.Platform

	prog := &Program{
		Application: m.Name(),
		Platform:    plat.Name,
		PackageSize: plat.PackageSize,
	}
	saOf := make(map[int]*SAProgram)
	for _, seg := range plat.Segments {
		prog.SAs = append(prog.SAs, SAProgram{Segment: seg.Index})
	}
	for i := range prog.SAs {
		saOf[prog.SAs[i].Segment] = &prog.SAs[i]
	}

	for si, st := range s.Stages() {
		for _, id := range st.Flows {
			f := s.Flow(id)
			src, dst, _ := plat.FlowSegments(f)
			route, rightward := plat.Route(src, dst)
			for pkg := 1; pkg <= s.Packages(id); pkg++ {
				if src == dst {
					saOf[src].Grants = append(saOf[src].Grants, Grant{
						Kind: GrantIntra, Stage: si, Order: st.Order,
						Flow: f, Package: pkg, Master: f.Source, ToSlave: f.Target,
					})
					continue
				}
				prog.CA = append(prog.CA, CAGrant{
					Stage: si, Order: st.Order, Flow: f, Package: pkg,
					Src: src, Dst: dst, Hops: len(route),
				})
				saOf[src].Grants = append(saOf[src].Grants, Grant{
					Kind: GrantFill, Stage: si, Order: st.Order,
					Flow: f, Package: pkg, Master: f.Source,
					ToBU: route[0].Name(), ToSlave: f.Target,
				})
				for hop, bu := range route {
					nextSeg := bu.Entered(rightward)
					g := Grant{
						Kind: GrantForward, Stage: si, Order: st.Order,
						Flow: f, Package: pkg, FromBU: bu.Name(), ToSlave: f.Target,
					}
					if hop == len(route)-1 {
						g.Deliver = true
					} else {
						g.ToBU = route[hop+1].Name()
					}
					saOf[nextSeg].Grants = append(saOf[nextSeg].Grants, g)
				}
			}
		}
	}
	return prog, nil
}

// Listing renders the program as a human-readable schedule: one block
// per arbiter, one line per grant slot, in schedule order.
func (p *Program) Listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "arbitration schedule for %q on %q (package size %d)\n",
		p.Application, p.Platform, p.PackageSize)
	fmt.Fprintf(&b, "\nCA: %d inter-segment grants\n", len(p.CA))
	for i, g := range p.CA {
		fmt.Fprintf(&b, "  %3d: order %-3d connect seg%d..seg%d (%d hop(s)) for %s->%s pkg %d\n",
			i, g.Order, g.Src, g.Dst, g.Hops, g.Flow.Source, g.Flow.Target, g.Package)
	}
	for _, sa := range p.SAs {
		fmt.Fprintf(&b, "\nSA%d: %d grants\n", sa.Segment, len(sa.Grants))
		for i, g := range sa.Grants {
			switch g.Kind {
			case GrantIntra:
				fmt.Fprintf(&b, "  %3d: order %-3d grant %-4s intra -> %s pkg %d\n",
					i, g.Order, g.Master, g.ToSlave, g.Package)
			case GrantFill:
				fmt.Fprintf(&b, "  %3d: order %-3d grant %-4s fill %s (for %s) pkg %d\n",
					i, g.Order, g.Master, g.ToBU, g.ToSlave, g.Package)
			case GrantForward:
				target := "deliver to " + g.ToSlave.String()
				if !g.Deliver {
					target = "forward into " + g.ToBU
				}
				fmt.Fprintf(&b, "  %3d: order %-3d grant %-4s %s pkg %d\n",
					i, g.Order, g.FromBU, target, g.Package)
			}
		}
	}
	return b.String()
}
