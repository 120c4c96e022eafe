package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"segbus/internal/emulator"
	"segbus/internal/m2t"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// keyDomain prefixes every key preimage; bump it whenever the encoding
// changes.
const keyDomain = "segbus/estimate/v2\n"

// maxPooledKeyBuf caps the key buffers kept for reuse, so one huge
// pair does not pin its encoding for the process lifetime.
const maxPooledKeyBuf = 64 << 10

var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// appendKeyOptions appends the report-affecting option fields as
// varints. Side-channel fields (Trace, Observer, Metrics) are excluded
// on purpose: they record how a run is watched, not what it computes,
// so two runs differing only in them produce byte-identical reports.
// Preflight is likewise excluded — it can only veto a run, never
// change its result.
func (o Options) appendKeyOptions(dst []byte) []byte {
	for _, v := range [...]int64{
		o.DetectTicks, int64(o.Policy),
		int64(o.Overheads.GrantTicks), int64(o.Overheads.SyncTicks),
		int64(o.Overheads.CASetTicks), int64(o.Overheads.CAResetTicks),
	} {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// Key returns the content address of an estimation: a hex SHA-256,
// under the segbus/estimate/v2 domain, over m2t.AppendCanonical's
// binary encoding of the validated model pair and the report-affecting
// option fields. The encoding carries exactly the values the m2t
// schemes render, so semantically identical documents collide
// regardless of their textual source; clocks enter with their exact
// float64 bits, since the emulator times with them. Equal keys
// therefore promise byte-identical report JSON, which is what makes
// the key safe to use as a result-cache address.
func Key(m *psdf.Model, plat *platform.Platform, opts Options) (string, error) {
	bp := keyBufs.Get().(*[]byte)
	buf, err := m2t.AppendCanonical(append((*bp)[:0], keyDomain...), m, plat)
	if err != nil {
		keyBufs.Put(bp)
		return "", err
	}
	buf = opts.appendKeyOptions(buf)
	sum := sha256.Sum256(buf)
	if cap(buf) <= maxPooledKeyBuf {
		*bp = buf
		keyBufs.Put(bp)
	}
	return hex.EncodeToString(sum[:]), nil
}

// Runner is a reusable estimation front end: one fixed option set
// applied to many model pairs, as a long-lived service does. The zero
// value runs the paper's estimation model with no preflight; a Runner
// is safe for concurrent use when its Options are (the shared Metrics
// registry and Observer, if any, must tolerate concurrent runs —
// *obs.Registry does).
type Runner struct {
	Opts Options
}

// NewRunner returns a Runner with the given fixed options.
func NewRunner(opts Options) *Runner { return &Runner{Opts: opts} }

// Key returns the content address of running m on plat under the
// runner's options (see Key).
func (r *Runner) Key(m *psdf.Model, plat *platform.Platform) (string, error) {
	return Key(m, plat, r.Opts)
}

// Estimate runs one estimation under the runner's options.
func (r *Runner) Estimate(m *psdf.Model, plat *platform.Platform) (*Estimation, error) {
	return Estimate(m, plat, r.Opts)
}

// EstimateOn runs one estimation under the runner's options on a
// caller-provided reusable machine (see EstimateOn).
func (r *Runner) EstimateOn(mc *emulator.Machine, m *psdf.Model, plat *platform.Platform) (*Estimation, error) {
	return EstimateOn(mc, m, plat, r.Opts)
}

// ReportJSON runs one estimation and renders the versioned report
// JSON — the serving payload, byte-identical for equal Keys.
func (r *Runner) ReportJSON(m *psdf.Model, plat *platform.Platform) ([]byte, error) {
	est, err := r.Estimate(m, plat)
	if err != nil {
		return nil, err
	}
	return est.Report.JSON()
}

// ReportJSONOn is ReportJSON on a caller-provided reusable machine:
// the serving pool's leader path, producing bytes identical to
// ReportJSON for the same inputs.
func (r *Runner) ReportJSONOn(mc *emulator.Machine, m *psdf.Model, plat *platform.Platform) ([]byte, error) {
	est, err := r.EstimateOn(mc, m, plat)
	if err != nil {
		return nil, err
	}
	return est.Report.JSON()
}
