// Package benchrec holds only tests: the schema check of the frozen
// BENCH_5.json … BENCH_10.json records at the repository root.
// They are one-sample benchmark records from before the segbench
// harness, kept for the numbers EXPERIMENTS.md and DESIGN.md quote. No
// tool writes them any more; these tests keep them well-formed under
// the schema rules they were written against.
package benchrec

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchRecordBattery is the minimum benchmark set of each record
// schema. A record may carry more than its schema's minimum — BENCH_6
// is a v1 record with an extra benchmark — but never less. Each name
// lives on as a `go test` benchmark (see CHANGES.md for the map).
var benchRecordBattery = map[string][]string{
	"segbus/bench-record/v1": {
		"kernel/event_throughput", "kernel/queue_churn", "kernel/cancel_heavy",
		"emulator/mp3_estimate", "serve/cold_estimate", "serve/cache_hit",
	},
	"segbus/bench-record/v2": {
		"kernel/event_throughput", "kernel/queue_churn", "kernel/cancel_heavy",
		"emulator/mp3_estimate", "analyze/exact_reachability",
		"serve/cold_estimate", "serve/cache_hit",
		"serve/batch_estimate", "serve/coalesced_hit",
	},
	"segbus/bench-record/v3": {
		"kernel/event_throughput", "kernel/queue_churn", "kernel/cancel_heavy",
		"emulator/mp3_estimate", "analyze/exact_reachability",
		"serve/cold_estimate", "serve/cache_hit",
		"serve/batch_estimate", "serve/coalesced_hit", "serve/traced_estimate",
	},
	"segbus/bench-record/v4": {
		"kernel/event_throughput", "kernel/queue_churn", "kernel/cancel_heavy",
		"emulator/mp3_estimate", "analyze/exact_reachability",
		"serve/cold_estimate", "serve/cache_hit",
		"serve/batch_estimate", "serve/coalesced_hit", "serve/traced_estimate",
		"serve/cache_hit_bytes", "serve/pooled_cold_estimate",
	},
	"segbus/bench-record/v5": {
		"kernel/event_throughput", "kernel/queue_churn", "kernel/cancel_heavy",
		"emulator/mp3_estimate", "analyze/exact_reachability",
		"serve/cold_estimate", "serve/cache_hit",
		"serve/batch_estimate", "serve/coalesced_hit", "serve/traced_estimate",
		"serve/cache_hit_bytes", "serve/pooled_cold_estimate",
		"explore/pruned_space", "explore/pruned_space_1w", "explore/exhaustive_small",
	},
}

// benchRecord is the layout of a BENCH_<n>.json record.
type benchRecord struct {
	Schema  string `json:"schema"`
	Go      string `json:"go"`
	GOOS    string `json:"goos"`
	GOARCH  string `json:"goarch"`
	Results []struct {
		Name        string  `json:"name"`
		Iterations  int     `json:"iterations"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		BytesPerOp  float64 `json:"bytes_per_op"`
		OpsPerSec   float64 `json:"ops_per_sec"`
	} `json:"results"`
	SimPsPerWallSecond  float64 `json:"sim_ps_per_wall_second"`
	EventsPerWallSecond float64 `json:"events_per_wall_second"`
}

// validateBenchRecord checks that data is a structurally sound record:
// a known schema, that schema's minimum benchmark set present (each at
// most once, with positive timings), and positive emulator rates.
func validateBenchRecord(data []byte) error {
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("not a record: %w", err)
	}
	required, ok := benchRecordBattery[rec.Schema]
	if !ok {
		return fmt.Errorf("unknown schema %q", rec.Schema)
	}
	if rec.Go == "" || rec.GOOS == "" || rec.GOARCH == "" {
		return fmt.Errorf("missing environment fields")
	}
	seen := make(map[string]bool, len(rec.Results))
	for _, res := range rec.Results {
		if seen[res.Name] {
			return fmt.Errorf("duplicate result %q", res.Name)
		}
		seen[res.Name] = true
		if res.Iterations <= 0 {
			return fmt.Errorf("%s: non-positive iterations %d", res.Name, res.Iterations)
		}
		if res.NsPerOp <= 0 || res.OpsPerSec <= 0 {
			return fmt.Errorf("%s: non-positive timing", res.Name)
		}
		if res.AllocsPerOp < 0 || res.BytesPerOp < 0 {
			return fmt.Errorf("%s: negative allocation figure", res.Name)
		}
	}
	for _, name := range required {
		if !seen[name] {
			return fmt.Errorf("missing benchmark %q", name)
		}
	}
	if rec.SimPsPerWallSecond <= 0 || rec.EventsPerWallSecond <= 0 {
		return fmt.Errorf("missing emulator rate gauges")
	}
	return nil
}

// recordDir is the repository root, where the records live.
var recordDir = filepath.Join("..", "..")

// TestValidateHistoricalRecords validates every committed
// BENCH_<n>.json at the repository root.
func TestValidateHistoricalRecords(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(recordDir, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 6 {
		t.Fatalf("found %d BENCH_*.json records, want the six frozen ones (BENCH_5 … BENCH_10)", len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateBenchRecord(data); err != nil {
			t.Errorf("%s: %v", filepath.Base(f), err)
		}
	}
}

// TestValidateRejects checks that the validator rejects each kind of
// corruption of a committed record.
func TestValidateRejects(t *testing.T) {
	good, err := os.ReadFile(filepath.Join(recordDir, "BENCH_10.json"))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(good, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	without := func(names ...string) func(m map[string]any) {
		return func(m map[string]any) {
			var kept []any
			for _, r := range m["results"].([]any) {
				name := r.(map[string]any)["name"].(string)
				drop := false
				for _, n := range names {
					drop = drop || name == n
				}
				if !drop {
					kept = append(kept, r)
				}
			}
			m["results"] = kept
		}
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"garbage", []byte("{"), "not a record"},
		{"wrong schema", mutate(func(m map[string]any) { m["schema"] = "other/v9" }), "schema"},
		{"v1 record missing its own battery", mutate(func(m map[string]any) {
			m["schema"] = "segbus/bench-record/v1"
			without("serve/cache_hit")(m)
		}), "missing benchmark"},
		{"missing serve benchmarks", mutate(without("serve/batch_estimate", "serve/coalesced_hit")), "missing benchmark"},
		{"missing env", mutate(func(m map[string]any) { m["go"] = "" }), "environment"},
		{"missing benchmark", mutate(func(m map[string]any) {
			m["results"] = m["results"].([]any)[1:]
		}), "missing benchmark"},
		{"duplicate benchmark", mutate(func(m map[string]any) {
			rs := m["results"].([]any)
			m["results"] = append(rs, rs[0])
		}), "duplicate"},
		{"zero timing", mutate(func(m map[string]any) {
			m["results"].([]any)[0].(map[string]any)["ns_per_op"] = 0.0
		}), "timing"},
		{"negative allocs", mutate(func(m map[string]any) {
			m["results"].([]any)[0].(map[string]any)["allocs_per_op"] = -1.0
		}), "negative"},
		{"no rates", mutate(func(m map[string]any) { m["sim_ps_per_wall_second"] = 0.0 }), "rate"},
	}
	for _, tc := range cases {
		err := validateBenchRecord(tc.data)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := validateBenchRecord(good); err != nil {
		t.Errorf("unmutated record rejected: %v", err)
	}

	// Older schemas validate against the battery of their day; a record
	// carrying more than its schema's minimum is fine.
	if err := validateBenchRecord(mutate(func(m map[string]any) { m["schema"] = "segbus/bench-record/v1" })); err != nil {
		t.Errorf("v1 record with a superset battery rejected: %v", err)
	}
}
