package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadRunJSON drives a small but complete in-process run — warm
// and cold traffic, batches, differential checking and the coalescing
// proof — and checks the machine-readable report adds up.
func TestLoadRunJSON(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-seed", "1", "-models", "6", "-requests", "60", "-concurrency", "4",
		"-hit-ratio", "0.5", "-batch", "3",
		"-corpus", filepath.Join("..", "..", "testdata", "scenarios"),
		"-diff", "-prove-coalescing", "-json",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Schema != ReportSchema {
		t.Errorf("schema %q, want %q", rep.Schema, ReportSchema)
	}
	if rep.Requests != 60 {
		t.Errorf("requests %d, want 60", rep.Requests)
	}
	if rep.Items != 180 {
		t.Errorf("items %d, want 180 (60 batches of 3)", rep.Items)
	}
	if rep.Status["200"] != 180 {
		t.Errorf("status tally %v, want 180 × 200", rep.Status)
	}
	if rep.Checked != 180 || rep.Mismatches != 0 {
		t.Errorf("differential checked=%d mismatches=%d, want 180/0", rep.Checked, rep.Mismatches)
	}
	// Every served item is exactly one of hit/miss/coalesced.
	if got := rep.CacheHits + rep.CacheMisses + rep.Coalesced; got != 180 {
		t.Errorf("markers sum to %d, want 180", got)
	}
	// The corpus has 6 models (plus warmup): a warm run must reuse.
	if rep.Emulations < 0 || rep.Emulations > 6 {
		t.Errorf("emulations %d, want 0..6 for a 6-model corpus", rep.Emulations)
	}
	if !rep.ProofRan || !rep.Proven {
		t.Errorf("coalescing proof ran=%v proven=%v", rep.ProofRan, rep.Proven)
	}
	if rep.Latency.MaxUs <= 0 || rep.Latency.P50Us > rep.Latency.MaxUs {
		t.Errorf("latency digest inconsistent: %+v", rep.Latency)
	}
	if rep.ElapsedMs <= 0 || rep.ItemsPerSec <= 0 {
		t.Errorf("throughput fields not populated: %+v", rep)
	}
	// In-process runs expose the cache's per-shard tallies. They are
	// the server-side view — warmup and the coalescing proof probe the
	// cache too, and the raw-bytes fast path answers repeat singles
	// without touching the shards at all — so the only portable
	// invariants are presence, sanity, and that the cold corpus forced
	// at least one canonical-pipeline miss and fill.
	if len(rep.CacheShards) == 0 {
		t.Fatal("in-process report has no cache_shards")
	}
	var entries int
	var shardMisses int64
	for _, st := range rep.CacheShards {
		if st.Entries < 0 || st.Hits < 0 || st.Misses < 0 || st.Evictions < 0 {
			t.Errorf("negative shard tally: %+v", st)
		}
		entries += st.Entries
		shardMisses += st.Misses
	}
	if shardMisses == 0 {
		t.Error("no shard recorded a miss on a cold corpus")
	}
	if entries == 0 {
		t.Error("no shard holds an entry after the run")
	}
}

// TestLoadRunTextSingles covers the single-request path (-batch 1)
// and the text renderer.
func TestLoadRunTextSingles(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-seed", "2", "-models", "4", "-requests", "30", "-concurrency", "3",
		"-hit-ratio", "1.0", "-batch", "1", "-diff",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"segbus-load: 30 requests (30 items)", "throughput:", "cache:", "shards:", "latency:", "differential: 30/30"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
}

// TestLoadRunSlowest covers -slowest: every request is traced via a
// forced traceparent, and the report ends with server-side stage
// breakdowns read back from /debug/requests.
func TestLoadRunSlowest(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-seed", "3", "-models", "4", "-requests", "24", "-concurrency", "3",
		"-hit-ratio", "0.5", "-batch", "1", "-slowest", "3", "-json",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, out.String())
	}
	if len(rep.Slowest) == 0 || len(rep.Slowest) > 3 {
		t.Fatalf("%d slowest entries, want 1..3", len(rep.Slowest))
	}
	prev := rep.Slowest[0].DurUs
	for i, s := range rep.Slowest {
		if len(s.TraceID) != 32 || s.Endpoint != "/estimate" || s.Status != 200 {
			t.Errorf("slowest[%d] = %+v", i, s)
		}
		if s.DurUs > prev {
			t.Errorf("slowest not worst-first: %d after %d", s.DurUs, prev)
		}
		prev = s.DurUs
		if len(s.Stages) == 0 {
			t.Errorf("slowest[%d] has no stage breakdown", i)
		}
		var sum int64
		names := make(map[string]bool)
		for _, st := range s.Stages {
			sum += st.DurUs
			names[st.Name] = true
		}
		if sum > s.DurUs+1 { // +1 absorbs per-stage ns→µs truncation
			t.Errorf("slowest[%d] stages sum to %dµs > total %dµs", i, sum, s.DurUs)
		}
		// A request is either the full pipeline (parse + cache_probe
		// after a raw-index miss) or a raw hit that stops at the
		// byte-level probe.
		if !(names["parse"] && names["cache_probe"]) && !names["raw_probe"] {
			t.Errorf("slowest[%d] stages match no known pipeline shape: %+v", i, s.Stages)
		}
	}
	// The emulations of a cold-ish run outrank its byte-copies and show
	// the full pipeline. The claim is checked over every request rather
	// than on slowest[0] alone: a single raw hit descheduled for a few
	// milliseconds outranks a ~1ms emulation on a busy host, while the
	// slowest emulation outranking the median raw hit needs half the
	// hits to stall at once.
	out.Reset()
	err = run([]string{
		"-seed", "3", "-models", "4", "-requests", "24", "-concurrency", "3",
		"-hit-ratio", "0.5", "-batch", "1", "-slowest", "64", "-json",
	}, &out)
	if err != nil {
		t.Fatalf("full run: %v\n%s", err, out.String())
	}
	rep = Report{}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("full report is not valid JSON: %v\n%s", err, out.String())
	}
	if int64(len(rep.Slowest)) != rep.Requests {
		t.Fatalf("%d slowest entries for %d traced requests", len(rep.Slowest), rep.Requests)
	}
	var emulated int64
	var slowestEmulation int64
	var rawHits []int64
	for i, s := range rep.Slowest {
		names := make(map[string]bool)
		for _, st := range s.Stages {
			names[st.Name] = true
		}
		switch {
		case names["emulate"]:
			emulated++
			for _, want := range []string{"decode", "raw_probe", "parse", "fingerprint", "cache_probe", "serialize"} {
				if !names[want] {
					t.Errorf("emulation slowest[%d] missing %s: %+v", i, want, s.Stages)
				}
			}
			slowestEmulation = max(slowestEmulation, s.DurUs)
		case !names["parse"]:
			rawHits = append(rawHits, s.DurUs) // worst-first, so descending
		}
	}
	if emulated == 0 || emulated != rep.Emulations {
		t.Errorf("%d traced emulations, server ran %d", emulated, rep.Emulations)
	}
	if len(rawHits) == 0 {
		t.Fatal("no raw hits in a run aimed half at the warm quarter")
	}
	if median := rawHits[len(rawHits)/2]; slowestEmulation <= median {
		t.Errorf("slowest emulation %dµs does not outrank the median raw hit %dµs", slowestEmulation, median)
	}

	// The text renderer includes the breakdown section.
	out.Reset()
	err = run([]string{
		"-seed", "3", "-models", "4", "-requests", "12", "-concurrency", "2",
		"-slowest", "2",
	}, &out)
	if err != nil {
		t.Fatalf("text run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "slowest 2 (server-side breakdown):") {
		t.Errorf("text report missing slowest section:\n%s", out.String())
	}
}

// TestLoadRunFlagValidation pins the argument gates.
func TestLoadRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-models", "0"},
		{"-concurrency", "0"},
		{"-batch", "0"},
		{"-hit-ratio", "1.5"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v did not error", args)
		}
	}
}

// TestLoadRunMarkerLatency covers the per-marker latency digests: a
// pure-hit single-request run reports a consistent "hit" digest with
// one sample per hit-marked response.
func TestLoadRunMarkerLatency(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-seed", "4", "-models", "6", "-requests", "60", "-concurrency", "1",
		"-hit-ratio", "1.0", "-batch", "1", "-json",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep Report
	if jerr := json.Unmarshal(out.Bytes(), &rep); jerr != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", jerr, out.String())
	}
	hl, ok := rep.MarkerLatency["hit"]
	if !ok {
		t.Fatalf("no hit latency digest in report: %+v", rep.MarkerLatency)
	}
	if hl.Samples < 20 {
		t.Errorf("hit samples %d, want >= 20 from a pure-hit run of 60", hl.Samples)
	}
	if hl.P50Us < 1 || hl.P50Us > hl.MaxUs {
		t.Errorf("hit latency digest inconsistent: %+v", hl)
	}
}
