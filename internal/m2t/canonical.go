package m2t

import (
	"encoding/binary"
	"math"

	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// AppendCanonical appends to dst a binary encoding of the values
// GeneratePSDF(m) and GeneratePSM(p) render, in the renderer's order,
// without rendering either document:
//
//   - the application type name (as typeName derives it) and the
//     nominal package size;
//   - the processes, ascending, each followed by its outgoing flows'
//     target, data items, ordering number and ticks, by (ordering
//     number, target);
//   - the CA clock, package size, header ticks and CA-hop ticks;
//   - each segment's index and clock, followed by its FUs' process
//     and master/slave roles in attachment order.
//
// Integers are varints, clocks their exact float64 bits, and every
// string and list is preceded by its length, so the encoding is
// injective. Everything else the documents contain (border units,
// buLeft/buRight, the per-process FU declarations, lower-cased element
// names) derives from these values. The renderer remains the
// definition: two valid pairs encode equally exactly when their
// rendered schemes are equal, except that clocks differing below one
// hertz, which the documents round away, encode differently.
//
// Both models are validated first; an invalid one fails with
// GeneratePSDF's or GeneratePSM's error and dst is returned unchanged.
// The cost is O(n log n) in the size of the pair.
func AppendCanonical(dst []byte, m *psdf.Model, p *platform.Platform) ([]byte, error) {
	if err := validatePSDF(m); err != nil {
		return dst, err
	}
	if err := validatePSM(p); err != nil {
		return dst, err
	}

	app := typeName(m.Name())
	dst = binary.AppendUvarint(dst, uint64(len(app)))
	dst = append(dst, app...)
	dst = binary.AppendVarint(dst, int64(m.NominalPackageSize()))
	procs := m.Processes()
	dst = binary.AppendUvarint(dst, uint64(len(procs)))
	for i, flows := range flowsBySource(m, procs) {
		dst = binary.AppendVarint(dst, int64(procs[i]))
		dst = binary.AppendUvarint(dst, uint64(len(flows)))
		for _, f := range flows {
			dst = binary.AppendVarint(dst, int64(f.Target))
			dst = binary.AppendVarint(dst, int64(f.Items))
			dst = binary.AppendVarint(dst, int64(f.Order))
			dst = binary.AppendVarint(dst, int64(f.Ticks))
		}
	}

	dst = appendClock(dst, p.CAClock)
	dst = binary.AppendVarint(dst, int64(p.PackageSize))
	dst = binary.AppendVarint(dst, int64(p.HeaderTicks))
	dst = binary.AppendVarint(dst, int64(p.CAHopTicks))
	dst = binary.AppendUvarint(dst, uint64(len(p.Segments)))
	for _, s := range p.Segments {
		dst = binary.AppendVarint(dst, int64(s.Index))
		dst = appendClock(dst, s.Clock)
		dst = binary.AppendUvarint(dst, uint64(len(s.FUs)))
		for _, fu := range s.FUs {
			dst = binary.AppendVarint(dst, int64(fu.Process))
			dst = append(dst, fuRoles(fu.Kind))
		}
	}
	return dst, nil
}

// appendClock appends the exact bits of a clock: the emulator times
// with the float period, so a sub-hertz difference is a different
// pair.
func appendClock(dst []byte, f platform.Hz) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(f)))
}

// fuRoles reduces an FU kind to the interface elements GeneratePSM
// renders for it: bit 0 for master, bit 1 for slave.
func fuRoles(k platform.FUKind) byte {
	var b byte
	if k != platform.SlaveOnly {
		b |= 1
	}
	if k != platform.MasterOnly {
		b |= 2
	}
	return b
}
