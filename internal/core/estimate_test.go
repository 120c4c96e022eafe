package core

import (
	"bytes"
	"strings"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

func TestKeyDeterministic(t *testing.T) {
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	k1, err := Key(m, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(m, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("same inputs hashed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 || strings.ToLower(k1) != k1 {
		t.Fatalf("key is not lowercase hex SHA-256: %q", k1)
	}
}

func TestKeySensitivity(t *testing.T) {
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	base, err := Key(m, p, Options{})
	if err != nil {
		t.Fatal(err)
	}

	p36b := apps.MP3Platform3(36)
	p36b.PackageSize = 48
	variants := map[string]func() (string, error){
		"package size": func() (string, error) { return Key(m, p36b, Options{}) },
		"detect ticks": func() (string, error) { return Key(m, p, Options{DetectTicks: 7}) },
		"policy":       func() (string, error) { return Key(m, p, Options{Policy: emulator.PolicyFIFO}) },
		"overheads": func() (string, error) {
			return Key(m, p, Options{Overheads: emulator.Overheads{GrantTicks: 1, SyncTicks: 2}})
		},
		"model": func() (string, error) { return Key(apps.JPEGModel(), apps.JPEGPlatform3(36), Options{}) },
	}
	for what, mk := range variants {
		k, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if k == base {
			t.Errorf("changing %s did not change the key", what)
		}
	}
}

func TestKeyIgnoresSideChannels(t *testing.T) {
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	base, err := Key(m, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withSide, err := Key(m, p, Options{Trace: true, Preflight: true})
	if err != nil {
		t.Fatal(err)
	}
	if base != withSide {
		t.Error("trace/preflight side channels leaked into the cache key")
	}
}

// reportJSON renders the report JSON of one estimation, on mc when it
// is non-nil (as the service's pooled run does) and through Estimate
// on a fresh machine otherwise — what the service caches and serves
// for the pair.
func reportJSON(mc *emulator.Machine, m *psdf.Model, plat *platform.Platform, opts Options) ([]byte, error) {
	var r *emulator.Report
	var err error
	if mc != nil {
		r, err = mc.RunPair(sched.NewPair(m, plat), opts.emulatorConfig(nil))
	} else {
		var est *Estimation
		if est, err = Estimate(m, plat, opts); err == nil {
			r = est.Report
		}
	}
	if err != nil {
		return nil, err
	}
	return r.JSON()
}

// TestRunnerReportJSONDeterministic: two estimations of the same pair
// under the same options render byte-identical report JSON.
func TestRunnerReportJSONDeterministic(t *testing.T) {
	opts := Options{Preflight: true}
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	a, err := reportJSON(nil, m, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reportJSON(nil, m, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two runs of the same pair produced different report JSON")
	}
	if !bytes.Contains(a, []byte(`"execution_time_ps"`)) {
		t.Errorf("report JSON missing execution time: %s", a)
	}
}

// TestRunnerPreflightRejects: with Preflight set, a broken pair
// renders no report.
func TestRunnerPreflightRejects(t *testing.T) {
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	p.Segments[0].FUs = nil // empty segment: SB027
	if _, err := reportJSON(nil, m, p, Options{Preflight: true}); err == nil {
		t.Fatal("preflight accepted an empty segment")
	}
}
