package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E5", "E10"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list missing %s", id)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "E1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "communication matrix") {
		t.Errorf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "passed") {
		t.Error("pass summary missing")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "E99"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunMarkdown(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "E9", "-markdown"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "### E9") || !strings.Contains(s, "| Metric | Paper | Measured | OK |") {
		t.Errorf("markdown shape wrong:\n%s", s)
	}
}

// TestRunAllExperiments is the binary-level reproduction gate: every
// experiment must pass its criteria.
func TestRunAllExperiments(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "all 10 experiment(s) passed") {
		t.Error("summary missing")
	}
}

func TestRunArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"E1.txt", "E10.txt", "fig10.svg", "fig11_s18.svg", "legend.svg", "fig10.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
