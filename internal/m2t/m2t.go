// Package m2t implements the model-to-text transformation of the
// design flow (section 3.4 of the paper): it renders PSDF application
// models and PSM platform models as XML Schema documents with the
// exact element shapes the paper's MagicDraw code-generation engine
// produces — one xs:complexType per platform element or application
// process, flows encoded in element names like "P1_576_1_250", and
// segments composed of buLeft/buRight, process and arbiter elements.
//
// Values the original tool keeps in the modeling environment (clock
// frequencies, protocol tick counts, the nominal package size) are
// embedded as xs:appinfo annotations so that a generated document
// round-trips losslessly through package schema.
package m2t

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// xmlEscaper escapes the five XML special characters; a Replacer is
// safe for concurrent use, so one serves every rendering.
var xmlEscaper = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
	"'", "&apos;",
)

// xmlEscape escapes the five XML special characters in text content
// and attribute values.
func xmlEscape(s string) string { return xmlEscaper.Replace(s) }

// builder assembles an indented XML document.
type builder struct {
	b      strings.Builder
	indent int
}

func (w *builder) line(format string, args ...interface{}) {
	for i := 0; i < w.indent; i++ {
		w.b.WriteString("  ")
	}
	fmt.Fprintf(&w.b, format, args...)
	w.b.WriteByte('\n')
}

func (w *builder) open(format string, args ...interface{}) {
	w.line(format, args...)
	w.indent++
}

func (w *builder) close(tag string) {
	w.indent--
	w.line("</%s>", tag)
}

// typeName derives the complexType name of the whole model from its
// application name: "mp3-decoder" becomes "MP3Decoder"-style camel
// case ("Mp3Decoder"); empty names fall back to "Application".
func typeName(name string) string {
	if name == "" {
		return "Application"
	}
	var out strings.Builder
	up := true
	for _, c := range name {
		switch {
		case c == '-' || c == '_' || c == ' ' || c == '.':
			up = true
		case up:
			out.WriteRune(toUpper(c))
			up = false
		default:
			out.WriteRune(c)
		}
	}
	return out.String()
}

func toUpper(c rune) rune {
	if c >= 'a' && c <= 'z' {
		return c - 'a' + 'A'
	}
	return c
}

// flowsBySource returns, for each of procs (ascending), the process's
// outgoing flows in the order FlowsFrom lists them — by ordering
// number, then target — using one sort of the whole flow list instead
// of a FlowsFrom scan per process. Flows whose source is not in procs
// belong to no group, as FlowsFrom over procs never lists them.
func flowsBySource(m *psdf.Model, procs []psdf.ProcessID) [][]psdf.Flow {
	flows := m.Flows() // by (Order, Source, Target)
	slices.SortStableFunc(flows, func(a, b psdf.Flow) int { return cmp.Compare(a.Source, b.Source) })
	out := make([][]psdf.Flow, len(procs))
	j := 0
	for i, p := range procs {
		for j < len(flows) && flows[j].Source < p {
			j++
		}
		k := j
		for k < len(flows) && flows[k].Source == p {
			k++
		}
		out[i], j = flows[j:k], k
	}
	return out
}

// validatePSDF and validatePSM are the gates of GeneratePSDF and
// GeneratePSM, shared with AppendCanonical so both refuse the same
// models with the same error text.
func validatePSDF(m *psdf.Model) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("m2t: refusing to transform an invalid PSDF model: %w", err)
	}
	return nil
}

func validatePSM(p *platform.Platform) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("m2t: refusing to transform an invalid platform: %w", err)
	}
	return nil
}

// GeneratePSDF renders the PSDF model as an XML Schema document: a
// root element referencing the application complexType, which is
// composed of one element per process; each process complexType lists
// its outgoing transfers as elements whose names encode the flow
// tuples ("P1_576_1_250" — target, data items, ordering, ticks).
func GeneratePSDF(m *psdf.Model) ([]byte, error) {
	if err := validatePSDF(m); err != nil {
		return nil, err
	}
	w := &builder{}
	w.line(`<?xml version="1.0" encoding="UTF-8"?>`)
	w.open(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">`)
	if m.NominalPackageSize() > 0 {
		w.open(`<xs:annotation>`)
		w.line(`<xs:appinfo>nominalPackageSize=%d</xs:appinfo>`, m.NominalPackageSize())
		w.close("xs:annotation")
	}
	app := typeName(m.Name())
	w.line(`<xs:element name="%s" type="%s"/>`, xmlEscape(strings.ToLower(app)), xmlEscape(app))
	w.open(`<xs:complexType name="%s">`, xmlEscape(app))
	w.open(`<xs:all>`)
	procs := m.Processes()
	for _, p := range procs {
		w.line(`<xs:element name="%s" type="%s"/>`, strings.ToLower(p.String()), p)
	}
	w.close("xs:all")
	w.close("xs:complexType")
	bySource := flowsBySource(m, procs)
	for i, p := range procs {
		w.open(`<xs:complexType name="%s">`, p)
		if flows := bySource[i]; len(flows) > 0 {
			w.open(`<xs:all>`)
			for _, f := range flows {
				w.line(`<xs:element name="%s" type="Transfer"/>`, xmlEscape(f.Name()))
			}
			w.close("xs:all")
		}
		w.close("xs:complexType")
	}
	w.open(`<xs:complexType name="Transfer">`)
	w.close("xs:complexType")
	w.close("xs:schema")
	return []byte(w.b.String()), nil
}

// GeneratePSM renders the platform model (with its application
// mapping) as an XML Schema document following the paper's PSM
// snippet: an "SBP" complexType composed of the segments, the CA and
// the BUs; each segment composed of its buLeft/buRight neighbours,
// its hosted processes and its arbiter; and each process complexType
// carrying its master/slave interface elements (Figure 5 hierarchy).
func GeneratePSM(p *platform.Platform) ([]byte, error) {
	if err := validatePSM(p); err != nil {
		return nil, err
	}
	w := &builder{}
	w.line(`<?xml version="1.0" encoding="UTF-8"?>`)
	w.open(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">`)
	w.line(`<xs:element name="sbp" type="SBP"/>`)
	w.open(`<xs:complexType name="SBP">`)
	w.open(`<xs:annotation>`)
	w.line(`<xs:appinfo>caClockHz=%d</xs:appinfo>`, int64(p.CAClock))
	w.line(`<xs:appinfo>packageSize=%d</xs:appinfo>`, p.PackageSize)
	w.line(`<xs:appinfo>headerTicks=%d</xs:appinfo>`, p.HeaderTicks)
	w.line(`<xs:appinfo>caHopTicks=%d</xs:appinfo>`, p.CAHopTicks)
	w.close("xs:annotation")
	w.open(`<xs:all>`)
	for _, s := range p.Segments {
		w.line(`<xs:element name="segment%d" type="Segment%d"/>`, s.Index, s.Index)
	}
	w.line(`<xs:element name="ca" type="CA"/>`)
	for _, bu := range p.BUs() {
		w.line(`<xs:element name="bu%d%d" type="%s"/>`, bu.Left, bu.Right, bu.Name())
	}
	w.close("xs:all")
	w.close("xs:complexType")

	for _, s := range p.Segments {
		w.open(`<xs:complexType name="Segment%d">`, s.Index)
		w.open(`<xs:annotation>`)
		w.line(`<xs:appinfo>clockHz=%d</xs:appinfo>`, int64(s.Clock))
		w.close("xs:annotation")
		w.open(`<xs:all>`)
		if s.Index > 1 {
			w.line(`<xs:element name="buLeft" type="BU%d%d"/>`, s.Index-1, s.Index)
		}
		if s.Index < len(p.Segments) {
			w.line(`<xs:element name="buRight" type="BU%d%d"/>`, s.Index, s.Index+1)
		}
		for _, fu := range s.FUs {
			w.line(`<xs:element name="%s" type="%s"/>`, strings.ToLower(fu.Process.String()), fu.Process)
		}
		w.line(`<xs:element name="arbiter" type="SA%d"/>`, s.Index)
		w.close("xs:all")
		w.close("xs:complexType")
	}

	// Per-process FU interface declarations (Figure 5: an FU contains
	// at least one master or one slave).
	type fuDecl struct {
		proc psdf.ProcessID
		kind platform.FUKind
	}
	var fus []fuDecl
	for _, s := range p.Segments {
		for _, fu := range s.FUs {
			fus = append(fus, fuDecl{fu.Process, fu.Kind})
		}
	}
	sort.Slice(fus, func(i, j int) bool { return fus[i].proc < fus[j].proc })
	for _, fu := range fus {
		w.open(`<xs:complexType name="%s">`, fu.proc)
		w.open(`<xs:all>`)
		if fu.kind != platform.SlaveOnly {
			w.line(`<xs:element name="master" type="Master"/>`)
		}
		if fu.kind != platform.MasterOnly {
			w.line(`<xs:element name="slave" type="Slave"/>`)
		}
		w.close("xs:all")
		w.close("xs:complexType")
	}

	w.open(`<xs:complexType name="CA">`)
	w.close("xs:complexType")
	for _, s := range p.Segments {
		w.open(`<xs:complexType name="SA%d">`, s.Index)
		w.close("xs:complexType")
	}
	for _, bu := range p.BUs() {
		w.open(`<xs:complexType name="%s">`, bu.Name())
		w.close("xs:complexType")
	}
	w.open(`<xs:complexType name="Master">`)
	w.close("xs:complexType")
	w.open(`<xs:complexType name="Slave">`)
	w.close("xs:complexType")
	w.close("xs:schema")
	return []byte(w.b.String()), nil
}
