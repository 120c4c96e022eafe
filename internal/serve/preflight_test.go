package serve

// The server runs preflight only after a result-cache miss. These
// tests hold rejected requests to the answers they got when preflight
// ran before the probe: the same status, code, error text and
// diagnostics, byte for byte, on a cold server and on a warm one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"segbus/internal/analyze"
	"segbus/internal/apps"
	"segbus/internal/conform"
	"segbus/internal/core"
	"segbus/internal/obs/reqtrace"
	"segbus/internal/psdf"
	"segbus/internal/schema"
)

// rejectedRequests returns requests that preflight rejects: every
// deadlock scenario, the deadlocking same-order cyclic mutants of the
// first n generated conformance cases of seed 1 (deadlockedMutants),
// and each of those cases whose PSDF, crossed with the previous case's
// PSM, is rejected (generated cases themselves always pass preflight).
// valid holds the uncrossed generated pairs, for warming a server with
// the crossed pairs' neighbours.
func rejectedRequests(t *testing.T, n int) (rejected, valid []EstimateRequest) {
	t.Helper()
	docs, err := conform.LoadCorpusDir(filepath.Join("..", "..", "testdata", "scenarios", "deadlock"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no deadlock scenarios")
	}
	for _, doc := range docs {
		psdfXML, psmXML, err := conform.NewCase(doc).Schemes()
		if err != nil {
			t.Fatalf("%s: %v", doc.Model.Name(), err)
		}
		rejected = append(rejected, EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)})
	}
	rejected = append(rejected, deadlockedMutants(t, 1, n)...)
	g := conform.NewGenerator(1, nil)
	var prevPSM []byte
	crossed := 0
	for i := 0; i < n; i++ {
		psdfXML, psmXML, err := g.Next().Schemes()
		if err != nil {
			continue
		}
		if _, err := schema.ParsePSDF(psdfXML); err != nil {
			continue
		}
		valid = append(valid, EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)})
		cross := EstimateRequest{PSDF: string(psdfXML), PSM: string(prevPSM)}
		prevPSM = psmXML
		if cross.PSM == "" {
			continue
		}
		if _, ok := preflightRejection(t, cross); ok {
			rejected = append(rejected, cross)
			crossed++
		}
	}
	if crossed == 0 {
		t.Fatalf("no crossed pair of %d generated cases is rejected by preflight", n)
	}
	return rejected, valid
}

// deadlockedMutants returns, as requests, the same-order cyclic
// mutants (conform.CyclicMutant) of the first n generated conformance
// cases of the seed that parse and that preflight rejects with an SB050
// deadlock, counterexample trace included. It fails the test when none
// does.
func deadlockedMutants(t *testing.T, seed int64, n int) []EstimateRequest {
	t.Helper()
	g := conform.NewGenerator(seed, nil)
	var out []EstimateRequest
	for i := 0; i < n; i++ {
		mut := conform.CyclicMutant(g.Next().Doc, 0)
		if mut == nil {
			continue
		}
		psdfXML, psmXML, err := conform.NewCase(mut).Schemes()
		if err != nil {
			continue
		}
		if _, err := schema.ParsePSDF(psdfXML); err != nil {
			continue
		}
		req := EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)}
		if rej, ok := preflightRejection(t, req); !ok || !hasCode(rej.diags, analyze.CodeDeadlockState) {
			continue
		}
		out = append(out, req)
	}
	if len(out) == 0 {
		t.Fatalf("no cyclic mutant of %d generated cases (seed %d) deadlocks", n, seed)
	}
	return out
}

// hasCode reports whether a diagnostic with the code is among ds.
func hasCode(ds []analyze.Diagnostic, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

// preflightRejection builds, from core.Preflight's diagnostics on the
// request's parsed pair, the 400 SB902 outcome the request must get;
// ok is false when preflight passes the pair.
func preflightRejection(t *testing.T, req EstimateRequest) (out outcome, ok bool) {
	t.Helper()
	m, err := schema.ParsePSDF([]byte(req.PSDF))
	if err != nil {
		t.Fatal(err)
	}
	plat, err := schema.ParsePSM([]byte(req.PSM))
	if err != nil {
		t.Fatal(err)
	}
	if req.PackageSize > 0 {
		plat.PackageSize = req.PackageSize
	}
	return rejection(core.Preflight(m, plat))
}

// rejection is the outcome of a preflight result: a 400 SB902 when it
// has errors.
func rejection(pre *analyze.Result) (outcome, bool) {
	if !pre.HasErrors() {
		return outcome{}, false
	}
	errs, warns, _ := pre.Counts()
	return errOutcome(http.StatusBadRequest, CodeBadModel,
		fmt.Sprintf("preflight found %d error(s), %d warning(s)", errs, warns), pre.Diagnostics), true
}

// errorBody renders a non-200 outcome as its response body.
func errorBody(t *testing.T, out outcome) []byte {
	t.Helper()
	b, err := json.Marshal(ErrorResponse{Code: out.code, Error: out.msg, Diagnostics: out.diags})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPreflightRejectionsUnchanged sends every rejected request to a
// cold server, and twice to a server whose cache holds the golden pair
// and every uncrossed generated pair: each answer is the 400 SB902
// body built from core.Preflight's diagnostics, with no cache marker.
func TestPreflightRejectionsUnchanged(t *testing.T) {
	rejected, valid := rejectedRequests(t, 200)
	psdfXML, psmXML := goldenSchemes(t)
	valid = append(valid, EstimateRequest{PSDF: psdfXML, PSM: psmXML})

	check := func(h http.Handler, state string, req EstimateRequest) {
		t.Helper()
		out, ok := preflightRejection(t, req)
		if !ok {
			t.Fatal("preflight passes a rejected request")
		}
		want := errorBody(t, out)
		rec := post(h, body(t, req))
		if rec.Code != http.StatusBadRequest || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s server: status %d, body\n%s\nwant 400, body\n%s", state, rec.Code, rec.Body.Bytes(), want)
		}
		if c := rec.Header().Get("X-Segbus-Cache"); c != "" {
			t.Fatalf("%s server: rejection carries cache marker %q", state, c)
		}
	}
	cold := New(Config{Workers: 1, Queue: 2, CacheEntries: 1024}).Handler()
	for _, req := range rejected {
		check(cold, "cold", req)
	}

	warm := New(Config{Workers: 1, Queue: 2, CacheEntries: 1024}).Handler()
	for _, req := range valid {
		if rec := post(warm, body(t, req)); rec.Code != http.StatusOK {
			t.Fatalf("warming: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for round := 0; round < 2; round++ {
		for _, req := range rejected {
			check(warm, "warm", req)
		}
	}
	t.Logf("%d rejected requests, %d warming pairs", len(rejected), len(valid))
}

// TestKeyFailureIsPreflightRejection covers a pair core.Key refuses:
// the key is derived before the cache probe, ahead of preflight, yet
// such a pair must still get preflight's 400 SB902, not a 500 SB906.
// Parsing validates what the key refuses, so the pair is built in
// memory.
func TestKeyFailureIsPreflightRejection(t *testing.T) {
	pr := &parsed{m: psdf.NewModel("empty"), plat: apps.MP3Platform3(36)}
	if _, err := core.Key(pr.m, pr.plat, pr.opts); err == nil {
		t.Fatal("core.Key accepts the empty model")
	}
	want, ok := rejection(core.Preflight(pr.m, pr.plat))
	if !ok {
		t.Fatal("preflight passes the empty model")
	}
	out := fingerprint(nil, reqtrace.RootSpan, pr)
	if got := errorBody(t, out); out.status != want.status || !bytes.Equal(got, errorBody(t, want)) {
		t.Errorf("status %d, body\n%s\nwant %d, body\n%s", out.status, got, want.status, errorBody(t, want))
	}
}
