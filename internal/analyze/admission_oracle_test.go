package analyze

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"

	"segbus/internal/automata"
	"segbus/internal/codegen"
	"segbus/internal/dsl"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/power"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// The admission oracle: each consumer's validation prologue as it was
// before the consumers shared one sched.Pair, kept verbatim so the
// pair's consumers can be held to the exact accept set and error text
// of their own former gates (CheckAgreement).

// oracleEmulatorGate is the emulator's former admission: the four
// checks in order, the first failure returned unwrapped.
func oracleEmulatorGate(m *psdf.Model, plat *platform.Platform) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if err := plat.Validate(); err != nil {
		return err
	}
	if err := plat.ValidateMapping(m); err != nil {
		return err
	}
	return plat.ValidateRoles(m)
}

// oracleBounds is the former ComputeBounds: NewBoundsQuery's model
// check, then Bounds' platform and mapping checks, each wrapped, and
// the per-package walk.
func oracleBounds(m *psdf.Model, plat *platform.Platform) (*Bounds, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("analyze: bounds need a valid model: %w", err)
	}
	if err := plat.Validate(); err != nil {
		return nil, fmt.Errorf("analyze: bounds need a valid platform: %w", err)
	}
	if err := plat.ValidateMapping(m); err != nil {
		return nil, fmt.Errorf("analyze: bounds need a complete mapping: %w", err)
	}
	return oraclePerPackageBounds(m, plat), nil
}

// oracleScheduleOf is the former automata.ScheduleOf, with the
// product encoding's capacity limits written out.
func oracleScheduleOf(m *psdf.Model, plat *platform.Platform) (*sched.Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	packageSize := 0
	if plat != nil {
		if err := plat.Validate(); err != nil {
			return nil, err
		}
		if err := plat.ValidateMapping(m); err != nil {
			return nil, err
		}
		if err := plat.ValidateRoles(m); err != nil {
			return nil, err
		}
		packageSize = plat.PackageSize
	} else {
		packageSize = m.NominalPackageSize()
		if packageSize <= 0 {
			packageSize = 1
		}
	}
	sch, err := sched.Extract(m, packageSize)
	if err != nil {
		return nil, err
	}
	if t := sch.TotalPackages(); t > 1<<15 {
		return nil, fmt.Errorf("%w: %d packages (max %d)", automata.ErrTooLarge, t, 1<<15)
	}
	if n := sch.NumStages(); n > 1<<14 {
		return nil, fmt.Errorf("%w: %d stages (max %d)", automata.ErrTooLarge, n, 1<<14)
	}
	if n := m.NumProcesses(); n > 1<<12 {
		return nil, fmt.Errorf("%w: %d processes (max %d)", automata.ErrTooLarge, n, 1<<12)
	}
	return sch, nil
}

// oracleCodegenGate is codegen.Generate's former prologue: no role
// check.
func oracleCodegenGate(m *psdf.Model, plat *platform.Platform) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if err := plat.Validate(); err != nil {
		return err
	}
	if err := plat.ValidateMapping(m); err != nil {
		return err
	}
	_, err := sched.Extract(m, plat.PackageSize)
	return err
}

// oracleDocValidate is the former dsl.(*Document).Validate.
func oracleDocValidate(doc *dsl.Document) dsl.Diagnostics {
	var ds dsl.Diagnostics

	if err := doc.Model.Validate(); err != nil {
		if verrs, ok := err.(psdf.ValidationErrors); ok {
			for _, v := range verrs {
				el := doc.Model.Name()
				if v.Flow != nil {
					el = v.Flow.String()
				}
				ds = append(ds, dsl.Diagnostic{Severity: dsl.SeverityError, Code: v.Code, Element: el, Message: v.Message})
			}
		} else {
			ds = append(ds, dsl.Diagnostic{Severity: dsl.SeverityError, Element: doc.Model.Name(), Message: err.Error()})
		}
	}

	inferred := dsl.InferStereotypes(doc.Model)
	for p, declared := range doc.Stereotype {
		if want, ok := inferred[p]; ok && want != declared {
			ds = append(ds, dsl.Diagnostic{
				Severity: dsl.SeverityError, Code: dsl.CodeStereotype, Element: p.String(),
				Message: fmt.Sprintf("declared stereotype %s contradicts the flow structure (expected %s)", declared, want),
			})
		}
	}

	if doc.Platform == nil {
		return ds
	}
	appendViolations := func(err error) {
		if err == nil {
			return
		}
		if vs, ok := err.(platform.ConstraintViolations); ok {
			for _, v := range vs {
				ds = append(ds, dsl.Diagnostic{Severity: dsl.SeverityError, Code: v.Code, Element: v.Element, Message: v.Message})
			}
			return
		}
		ds = append(ds, dsl.Diagnostic{Severity: dsl.SeverityError, Element: doc.Platform.Name, Message: err.Error()})
	}
	appendViolations(doc.Platform.Validate())
	appendViolations(doc.Platform.ValidateMapping(doc.Model))
	appendViolations(doc.Platform.ValidateRoles(doc.Model))

	if doc.Platform.PackageSize > 0 && doc.Model.NominalPackageSize() > 0 &&
		doc.Platform.PackageSize != doc.Model.NominalPackageSize() {
		ds = append(ds, dsl.Diagnostic{
			Severity: dsl.SeverityWarning, Code: dsl.CodePackageSizeMismatch, Element: doc.Platform.Name,
			Message: fmt.Sprintf("platform package size %d differs from the model's nominal %d: per-package processing costs will be rescaled",
				doc.Platform.PackageSize, doc.Model.NominalPackageSize()),
		})
	}
	return ds
}

// oracleRun is the former Run: no shared admission, every analyzer
// validating for itself, and the bounds computed once by the bounds
// analyzer and again by congestion.
func oracleRun(doc *dsl.Document) *Result {
	res := &Result{Model: doc.Model.Name()}
	if doc.Platform != nil {
		res.Platform = doc.Platform.Name
	}
	for _, a := range registry {
		if a.NeedsPlatform && doc.Platform == nil {
			res.Skipped = append(res.Skipped, a.Name)
			continue
		}
		pass := &Pass{Model: doc.Model, Platform: doc.Platform, Doc: doc, analyzer: a.Name, result: res}
		switch a.Name {
		case "structural":
			for _, d := range oracleDocValidate(doc) {
				sev := SeverityError
				if d.Severity == dsl.SeverityWarning {
					sev = SeverityWarning
				}
				pass.Report(Diagnostic{Code: d.Code, Severity: sev, Element: d.Element, Message: d.Message})
			}
		case "liveness":
			checkStageCycles(pass, pass.Model)
			checkLateInputs(pass, pass.Model)
			checkFeedsFinal(pass, pass.Model)
			oracleReachability(pass)
		case "bounds":
			if b, err := oracleBounds(pass.Model, pass.Platform); err == nil {
				res.Bounds = b
				pass.Reportf(CodeBoundsInfo, SeverityInfo, "model",
					"static bounds: execution time between %d and %d ps (%d package transfers)",
					b.LowerPs, b.UpperPs, b.TotalPackages)
			}
		case "congestion":
			if b, err := oracleBounds(pass.Model, pass.Platform); err == nil {
				checkBUImbalance(pass, b)
				checkSegmentImbalance(pass, b)
				checkUnusedSegmentation(pass, b)
			}
		default:
			panic("analyze: no oracle for analyzer " + a.Name)
		}
	}
	sortDiagnostics(res.Diagnostics)
	return res
}

// oracleReachability is checkExactReachability on the former
// ScheduleOf.
func oracleReachability(pass *Pass) {
	sch, err := oracleScheduleOf(pass.Model, pass.Platform)
	if err != nil {
		if errors.Is(err, automata.ErrTooLarge) {
			pass.Reportf(CodeExactSkipped, SeverityInfo, "model",
				"exact reachability analysis skipped: %v", err)
		}
		return
	}
	if sch.Drains() {
		return
	}
	sys, err := automata.CompileSchedule(pass.Model, pass.Platform, sch)
	if err != nil {
		return
	}
	reportDeadlock(pass, sys.Check())
}

// maxAgreementPackages bounds the per-package work CheckAgreement
// spends on a pair the gates admit (code generation emits one grant
// per package).
const maxAgreementPackages = 1 << 15

// CheckAgreement holds every consumer of the shared admission to its
// former gate on one document: equal err.Error() from the emulator,
// ComputeBounds (and byte-equal Bounds, SameBounds), automata.Compile,
// codegen.Generate and power.NewProfile, and byte-equal
// Document.Validate and Run output. It returns the first disagreement.
func CheckAgreement(doc *dsl.Document) error {
	if got, want := doc.Validate(), oracleDocValidate(doc); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Document.Validate:\n%s\nformer gate:\n%s", got, want)
	}
	got, want := Run(doc, Options{}), oracleRun(doc)
	if g, w := got.String(), want.String(); g != w {
		return fmt.Errorf("Run:\n%s\nformer gates:\n%s", g, w)
	}
	gj, err := got.JSON()
	if err != nil {
		return err
	}
	wj, err := want.JSON()
	if err != nil {
		return err
	}
	if string(gj) != string(wj) {
		return fmt.Errorf("Run JSON:\n%s\nformer gates:\n%s", gj, wj)
	}

	m, plat := doc.Model, doc.Platform
	_, err = automata.Compile(m, plat)
	_, wantErr := oracleScheduleOf(m, plat)
	if err := sameErr("automata.Compile", err, wantErr); err != nil {
		return err
	}
	if plat == nil {
		return nil
	}

	if wantErr := oracleEmulatorGate(m, plat); wantErr != nil {
		_, err := emulator.Run(m, plat, emulator.Config{})
		if err := sameErr("emulator.Run", err, wantErr); err != nil {
			return err
		}
	} else if p := sched.NewPair(m, plat); p.Err() != nil || p.PackageSize != plat.PackageSize {
		return fmt.Errorf("emulator admission differs on a pair its former gate admits: %v, package size %d", p.Err(), p.PackageSize)
	}

	if err := SameBounds(m, plat); err != nil {
		return err
	}

	// power checks nothing: its former gate was the extraction alone,
	// and it panicked on a flow endpoint no segment hosts, which it now
	// refuses with an error.
	_, err = power.NewProfile(m, plat, power.Params{})
	_, wantErr = sched.Extract(m, plat.PackageSize)
	if wantErr == nil {
		wantErr = unhostedFlow(m, plat)
	}
	if err := sameErr("power.NewProfile", err, wantErr); err != nil {
		return err
	}

	wantErr = oracleCodegenGate(m, plat)
	if wantErr == nil {
		sch, _ := sched.Extract(m, plat.PackageSize)
		if sch.TotalPackages() > maxAgreementPackages {
			return nil
		}
	}
	_, err = codegen.Generate(sched.NewPair(m, plat))
	return sameErr("codegen.Generate", err, wantErr)
}

// SameBounds holds ComputeBounds to the former gate and per-package
// walk on one pair: equal err.Error(), or byte-equal Bounds JSON.
func SameBounds(m *psdf.Model, plat *platform.Platform) error {
	got, err := ComputeBounds(m, plat)
	want, wantErr := oracleBounds(m, plat)
	if err := sameErr("ComputeBounds", err, wantErr); err != nil || got == nil {
		return err
	}
	gj, err := json.Marshal(got)
	if err != nil {
		return err
	}
	wj, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(gj) != string(wj) {
		return fmt.Errorf("ComputeBounds on %s:\n%s\nper-package walk:\n%s", m.Name(), gj, wj)
	}
	return nil
}

// unhostedFlow is the error power refuses a pair with: the first flow,
// in canonical order, whose source or target no segment hosts.
func unhostedFlow(m *psdf.Model, plat *platform.Platform) error {
	for _, f := range m.Flows() {
		if plat.SegmentOf(f.Source) == 0 || (f.Target != psdf.SystemOutput && plat.SegmentOf(f.Target) == 0) {
			return fmt.Errorf("power: flow %s has an endpoint on no segment of platform %q", f, plat.Name)
		}
	}
	return nil
}

// sameErr reports a disagreement between a consumer's error and its
// former gate's: both nil, or equal text.
func sameErr(what string, got, want error) error {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Errorf("%s: error %v, former gate %v", what, got, want)
	case got != nil && got.Error() != want.Error():
		return fmt.Errorf("%s: error %q, former gate %q", what, got, want)
	}
	return nil
}
