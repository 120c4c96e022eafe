package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"segbus/internal/serve"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsSmoke runs every workload briefly in both modes: each
// must pass its output checks and report exactly the metrics
// BENCHMARK.json names, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark lacks", w.Name)
		}
	}
	modes := []struct {
		name, trace string
		want        []struct{ Name, Unit string }
	}{
		{"end_to_end", "0", spec.EndToEnd},
		{"traced", "1", spec.PerLayer},
	}
	// Every workload runs, including one BENCHMARK.json leaves out.
	for name := range workloads {
		for _, mode := range modes {
			want := mode.want
			t.Run(name+"/"+mode.name, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", mode.trace}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if len(lines) < 2 {
					t.Fatalf("want a context line and a result line, got %q", stdout.String())
				}
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				var ctx struct {
					Segbench struct {
						FailedRatio struct{ Value float64 } `json:"failed_ratio"`
						Shape       map[string]any
						Stamp       map[string]any
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &ctx); err != nil {
					t.Fatal(err)
				}
				if ctx.Segbench.FailedRatio.Value != 0 {
					t.Errorf("failed_ratio = %v", ctx.Segbench.FailedRatio.Value)
				}
				if len(ctx.Segbench.Shape) == 0 || ctx.Segbench.Stamp["nproc"] == nil {
					t.Errorf("context lacks the shape checks or the stamp: %s", lines[len(lines)-2])
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestReencodedKeepsKey pins the warm workload's premise: the
// re-encoded variant of a pair is a different body with the same
// canonical key.
func TestReencodedKeepsKey(t *testing.T) {
	pairs, err := servableCorpus(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		r, err := reencode(p)
		if err != nil {
			t.Fatal(err)
		}
		if body := append(append(append([]byte(nil), r.prefix...), '7'), r.suffix...); bytes.Equal(body, p.body) {
			t.Errorf("pair %d: re-encoding left the body unchanged", i)
		}
		if err := sameKey(p, r); err != nil {
			t.Errorf("pair %d: %v", i, err)
		}
	}
}

// TestColdStreamKeysAreNew pins the cold workload's premise over more
// requests than one round of overrides: no two requests share a
// canonical key, and each body carries its overrides.
func TestColdStreamKeysAreNew(t *testing.T) {
	bases, err := servableCorpus(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := coldStream{bases}
	seen := make(map[string]int64)
	for v := int64(0); v < 40; v++ {
		b, opts, _ := s.variant(v)
		var req serve.EstimateRequest
		if err := json.Unmarshal(s.body(nil, v), &req); err != nil {
			t.Fatal(err)
		}
		if p, err := policyOf(req.Policy); err != nil || p != opts.Policy || req.DetectTicks != opts.DetectTicks {
			t.Fatalf("request %d carries policy %q, detect %d; want %v, %d", v, req.Policy, req.DetectTicks, opts.Policy, opts.DetectTicks)
		}
		key, err := canonicalKey(bases[b].psdf, bases[b].psm, opts)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("requests %d and %d share key %s", prev, v, key)
		}
		seen[key] = v
	}
}
