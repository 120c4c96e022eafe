package sched

import (
	"sync"

	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// ModelCheck is a model validated once, the first step of NewPair: a
// caller that varies only the platform (the explorer, the sweep)
// pairs it with every candidate without checking the model again.
type ModelCheck struct {
	m   *psdf.Model
	Err error // psdf.Model.Validate's outcome
}

// CheckModel validates m.
func CheckModel(m *psdf.Model) *ModelCheck { return &ModelCheck{m: m, Err: m.Validate()} }

// Pair is a (model, platform) pair after the admission checks: the one
// validation every consumer reads. The outcome of each check — model,
// platform, mapping, roles, in that order — is kept (nil when it
// passed), so each consumer applies exactly the checks it needs and a
// front end reports every violation at once. A nil Platform is a bare
// model: the platform checks are skipped and the package size is the
// model's nominal one (1 when unset). A Pair is safe for concurrent
// use.
type Pair struct {
	Model       *psdf.Model
	Platform    *platform.Platform
	PackageSize int

	ModelErr, PlatformErr, MappingErr, RolesErr error

	once   sync.Once
	sch    *Schedule
	schErr error
}

// NewPair admits m on plat (nil for a bare model).
func NewPair(m *psdf.Model, plat *platform.Platform) *Pair { return CheckModel(m).Pair(plat) }

// Pair admits plat against the checked model.
func (c *ModelCheck) Pair(plat *platform.Platform) *Pair {
	p := &Pair{Model: c.m, Platform: plat, ModelErr: c.Err, PackageSize: max(c.m.NominalPackageSize(), 1)}
	if plat != nil {
		p.PackageSize = plat.PackageSize
		p.PlatformErr = plat.Validate()
		p.MappingErr = plat.ValidateMapping(c.m)
		p.RolesErr = plat.ValidateRoles(c.m)
	}
	return p
}

// Err returns the first failed check, unwrapped, or nil when the pair
// may be emulated.
func (p *Pair) Err() error {
	for _, err := range [...]error{p.ModelErr, p.PlatformErr, p.MappingErr, p.RolesErr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// Schedule returns the schedule at PackageSize, extracted on the first
// call only. The gated consumers call it once their checks pass, so a
// refused pair is never extracted.
func (p *Pair) Schedule() (*Schedule, error) {
	p.once.Do(func() { p.sch, p.schErr = Extract(p.Model, p.PackageSize) })
	return p.sch, p.schErr
}
