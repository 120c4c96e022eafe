package dsl

import (
	"fmt"
	"strings"

	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// Severity classifies a diagnostic.
type Severity int

// Diagnostic severities.
const (
	SeverityError Severity = iota
	SeverityWarning
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == SeverityWarning {
		return "warning"
	}
	return "error"
}

// Diagnostic is one finding of the validation pass. Element names the
// model element to highlight, as the DSL tool highlights the offending
// element in the diagram on an OCL breach. Code is the stable SB0xx
// diagnostic code of the violated rule, carried over from the psdf and
// platform validators (see internal/analyze for the full table).
type Diagnostic struct {
	Severity Severity
	Code     string
	Element  string
	Message  string
}

// Stable diagnostic codes of the DSL-level consistency rules.
const (
	CodeStereotype          = "SB040" // declared stereotype contradicts flows
	CodePackageSizeMismatch = "SB041" // platform vs nominal package size
)

// String implements fmt.Stringer.
func (d Diagnostic) String() string {
	if d.Code != "" {
		return fmt.Sprintf("%s: %s: %s: %s", d.Severity, d.Element, d.Code, d.Message)
	}
	return fmt.Sprintf("%s: %s: %s", d.Severity, d.Element, d.Message)
}

// Diagnostics aggregates validation findings.
type Diagnostics []Diagnostic

// HasErrors reports whether any diagnostic has error severity.
func (ds Diagnostics) HasErrors() bool {
	for _, d := range ds {
		if d.Severity == SeverityError {
			return true
		}
	}
	return false
}

// String renders one diagnostic per line.
func (ds Diagnostics) String() string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate runs the full DSL validation pass over the document: PSDF
// well-formedness, platform structural constraints, the
// application-to-platform mapping, FU interface roles, and stereotype
// consistency (a declared stereotype must match the flow structure).
// It returns every finding; an empty slice means the model is a
// correct PSDF/PSM pair ready for transformation.
func (doc *Document) Validate() Diagnostics {
	return doc.ValidatePair(sched.NewPair(doc.Model, doc.Platform))
}

// ValidatePair is Validate on doc's admitted pair (sched.NewPair of
// doc.Model and doc.Platform): every recorded violation becomes a
// diagnostic, in admission order, the stereotype findings following
// the model's.
func (doc *Document) ValidatePair(pair *sched.Pair) Diagnostics {
	var ds Diagnostics
	verrs, _ := pair.ModelErr.(psdf.ValidationErrors)
	for _, v := range verrs {
		el := doc.Model.Name()
		if v.Flow != nil {
			el = v.Flow.String()
		}
		ds = append(ds, Diagnostic{SeverityError, v.Code, el, v.Message})
	}

	inferred := InferStereotypes(doc.Model)
	for p, declared := range doc.Stereotype {
		if want, ok := inferred[p]; ok && want != declared {
			ds = append(ds, Diagnostic{
				SeverityError, CodeStereotype, p.String(),
				fmt.Sprintf("declared stereotype %s contradicts the flow structure (expected %s)", declared, want),
			})
		}
	}

	if doc.Platform == nil {
		return ds
	}
	for _, err := range [...]error{pair.PlatformErr, pair.MappingErr, pair.RolesErr} {
		vs, _ := err.(platform.ConstraintViolations)
		for _, v := range vs {
			ds = append(ds, Diagnostic{SeverityError, v.Code, v.Element, v.Message})
		}
	}

	// Advisory findings.
	if doc.Platform.PackageSize > 0 && doc.Model.NominalPackageSize() > 0 &&
		doc.Platform.PackageSize != doc.Model.NominalPackageSize() {
		ds = append(ds, Diagnostic{
			SeverityWarning, CodePackageSizeMismatch, doc.Platform.Name,
			fmt.Sprintf("platform package size %d differs from the model's nominal %d: per-package processing costs will be rescaled",
				doc.Platform.PackageSize, doc.Model.NominalPackageSize()),
		})
	}
	return ds
}
