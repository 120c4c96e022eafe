package parallel_test

// Candidate-batch contract of the one batch-emulation path —
// StealRun over (*pool.Pool).Run, as core.Explore, the sweep curves
// and the explorer's waves use it: results land in candidate order,
// equal fresh emulator.Run results for any worker count, and a
// failing or panicking candidate keeps its own error without touching
// its siblings.

import (
	"bytes"
	"encoding/json"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/emulator"
	"segbus/internal/emulator/pool"
	"segbus/internal/parallel"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

type job struct {
	model *psdf.Model
	plat  *platform.Platform
}

type outcome struct {
	report *emulator.Report
	err    error
}

func jobs(n int) []job {
	m := apps.MP3Model()
	sizes := []int{9, 12, 18, 24, 36, 48, 72}
	out := make([]job, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, job{m, apps.MP3Platform3(sizes[i%len(sizes)])})
	}
	return out
}

// runBatch emulates every job on a pool sized for the worker count,
// each task writing only its own slot.
func runBatch(js []job, opts parallel.StealOptions) []outcome {
	machines := pool.ForWorkers(opts.Workers)
	out := make([]outcome, len(js))
	parallel.StealRun(len(js), opts, func(i int) {
		r, err := machines.Run(sched.NewPair(js[i].model, js[i].plat), emulator.Config{}, nil)
		out[i] = outcome{r, err}
	})
	return out
}

func TestRunPreservesOrder(t *testing.T) {
	js := jobs(12)
	results := runBatch(js, parallel.StealOptions{Workers: 4})
	if len(results) != len(js) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.err != nil {
			t.Errorf("job %d: %v", i, r.err)
			continue
		}
		if r.report == nil {
			t.Errorf("job %d: nil report", i)
			continue
		}
		if r.report.PackageSize != js[i].plat.PackageSize {
			t.Errorf("result %d has package size %d, want %d", i, r.report.PackageSize, js[i].plat.PackageSize)
		}
	}
}

func TestRunMatchesSequential(t *testing.T) {
	js := jobs(8)
	seq := runBatch(js, parallel.StealOptions{Workers: 1})
	par := runBatch(js, parallel.StealOptions{Workers: 8, Seed: 5})
	for i := range js {
		if seq[i].err != nil || par[i].err != nil {
			t.Fatalf("job %d: errors %v / %v", i, seq[i].err, par[i].err)
		}
		sj, pj := mustJSON(t, seq[i].report), mustJSON(t, par[i].report)
		if !bytes.Equal(sj, pj) {
			t.Errorf("job %d: parallel result differs from sequential", i)
		}
	}
}

func TestRunContinuesAfterFailure(t *testing.T) {
	js := jobs(3)
	js[1].model = psdf.NewModel("broken") // fails validation
	results := runBatch(js, parallel.StealOptions{Workers: 2})
	if results[0].err != nil || results[2].err != nil {
		t.Error("healthy jobs infected by a failing one")
	}
	if results[1].err == nil {
		t.Fatal("broken job reported success")
	}
	_, want := emulator.Run(js[1].model, js[1].plat, emulator.Config{})
	if want == nil || results[1].err.Error() != want.Error() {
		t.Errorf("broken job error %q, want %v", results[1].err, want)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	js := jobs(2)
	js[0].plat = nil // the run panics dereferencing it
	results := runBatch(js, parallel.StealOptions{Workers: 2})
	if results[0].err == nil || results[0].report != nil {
		t.Errorf("panicking job result = %+v", results[0])
	}
	if results[1].err != nil {
		t.Error("sibling job failed")
	}
}

func TestRunEmpty(t *testing.T) {
	if got := runBatch(nil, parallel.StealOptions{}); len(got) != 0 {
		t.Errorf("empty run = %v", got)
	}
}

func TestRunDefaultWorkers(t *testing.T) {
	for i, r := range runBatch(jobs(2), parallel.StealOptions{}) { // Workers: 0 selects GOMAXPROCS
		if r.err != nil || r.report == nil {
			t.Errorf("job %d: report %v, err %v", i, r.report, r.err)
		}
	}
}

// TestRunPooledMatchesRun pins pooled results byte-identical to fresh
// machines on a mixed-shape job list, including an invalid job whose
// error must survive in place. Reports are compared only after the
// whole batch has finished, so one that aliased a reused machine
// would differ here.
func TestRunPooledMatchesRun(t *testing.T) {
	m := apps.MP3Model()
	var js []job
	for _, size := range []int{36, 18, 12} {
		js = append(js, job{m, apps.MP3Platform3(size)}, job{m, apps.MP3Platform2(size)})
	}
	// An infeasible job: package size rejected by validation.
	bad := apps.MP3Platform3(36)
	bad.PackageSize = -5
	js = append(js, job{m, bad})

	got := runBatch(js, parallel.StealOptions{Workers: 3, Seed: 9})
	if len(got) != len(js) {
		t.Fatalf("result count %d != %d", len(got), len(js))
	}
	for i, j := range js {
		want, wantErr := emulator.Run(j.model, j.plat, emulator.Config{})
		if (wantErr == nil) != (got[i].err == nil) {
			t.Fatalf("job %d (%s): err %v vs %v", i, j.plat.Name, wantErr, got[i].err)
		}
		if wantErr != nil {
			if wantErr.Error() != got[i].err.Error() {
				t.Errorf("job %d error drifted: %v vs %v", i, wantErr, got[i].err)
			}
			continue
		}
		if !bytes.Equal(mustJSON(t, want), mustJSON(t, got[i].report)) {
			t.Errorf("job %d (%s): pooled report differs from fresh", i, j.plat.Name)
		}
	}
}

func mustJSON(t *testing.T, r *emulator.Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
