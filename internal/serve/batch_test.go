package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"segbus/internal/conform"
	"segbus/internal/core"
	"segbus/internal/schema"
)

// postBatch runs one POST /estimate/batch through the handler.
func postBatch(h http.Handler, b []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate/batch", bytes.NewReader(b)))
	return rec
}

// batchBody marshals a batch request.
func batchBody(t *testing.T, req BatchRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeBatch asserts a 200 envelope and returns it. Report fields
// come back as raw spans of the response, so byte comparisons against
// the single endpoint are exact.
func decodeBatch(t *testing.T, rec *httptest.ResponseRecorder) BatchResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("batch envelope status %d: %s", rec.Code, rec.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("batch envelope is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	return resp
}

// TestBatchGolden drives one mixed batch through every per-item path:
// a golden model, its exact duplicate, an option variant, a
// non-scheme payload and a half-missing request. The envelope is 200;
// per-item statuses, codes and report bytes mirror the single
// endpoint exactly.
func TestBatchGolden(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	s := New(Config{Workers: 2, Queue: 4, CacheEntries: 8})
	h := s.Handler()

	items := []EstimateRequest{
		{PSDF: psdfXML, PSM: psmXML},                 // 0: served
		{PSDF: psdfXML, PSM: psmXML},                 // 1: duplicate of 0
		{PSDF: psdfXML, PSM: psmXML, PackageSize: 9}, // 2: distinct key
		{PSDF: "hello", PSM: psmXML},                 // 3: SB901 bad scheme
		{PSDF: psdfXML},                              // 4: SB900 missing psm
	}
	resp := decodeBatch(t, postBatch(h, batchBody(t, BatchRequest{Items: items})))
	if len(resp.Items) != len(items) {
		t.Fatalf("%d items back, want %d", len(resp.Items), len(items))
	}
	if resp.Served != 3 || resp.Failed != 2 || resp.Deduplicated != 1 {
		t.Errorf("tallies served=%d failed=%d dedup=%d, want 3/2/1",
			resp.Served, resp.Failed, resp.Deduplicated)
	}
	for i, it := range resp.Items {
		if it.Index != i {
			t.Errorf("item %d carries index %d", i, it.Index)
		}
	}
	for _, i := range []int{0, 1, 2} {
		it := resp.Items[i]
		if it.Status != http.StatusOK || len(it.Report) == 0 {
			t.Fatalf("item %d: status %d report %d bytes (%s %s)", i, it.Status, len(it.Report), it.Code, it.Error)
		}
	}
	if !bytes.Equal(resp.Items[0].Report, resp.Items[1].Report) {
		t.Error("duplicate items returned different report bytes")
	}
	if resp.Items[0].Cache != resp.Items[1].Cache {
		t.Errorf("duplicate items disagree on cache marker: %q vs %q", resp.Items[0].Cache, resp.Items[1].Cache)
	}
	if bytes.Equal(resp.Items[0].Report, resp.Items[2].Report) {
		t.Error("package-size variant produced the base report")
	}
	if it := resp.Items[3]; it.Status != http.StatusBadRequest || it.Code != CodeBadScheme {
		t.Errorf("item 3: status %d code %s, want 400 %s", it.Status, it.Code, CodeBadScheme)
	}
	if it := resp.Items[4]; it.Status != http.StatusBadRequest || it.Code != CodeBadRequest {
		t.Errorf("item 4: status %d code %s, want 400 %s", it.Status, it.Code, CodeBadRequest)
	}

	// Per-item bytes must match the single endpoint on a fresh server
	// (no cache sharing), which is itself pinned to CLI output.
	single := New(Config{Workers: 2, Queue: 4, CacheEntries: 8}).Handler()
	for _, i := range []int{0, 2} {
		rec := post(single, body(t, items[i]))
		if rec.Code != http.StatusOK {
			t.Fatalf("single item %d: status %d", i, rec.Code)
		}
		if !bytes.Equal(resp.Items[i].Report, rec.Body.Bytes()) {
			t.Errorf("item %d: batch report differs from single /estimate body", i)
		}
	}
}

// TestBatchDifferential is the batch acceptance oracle: ≥200 served
// generated cases cross-checked three ways — batch report bytes vs a
// sequential single /estimate of the same item, vs the CLI pipeline
// (Case.CheckServed), with invalid items deliberately mixed into
// every batch to prove one bad item never fails its siblings. Each
// batch also carries a deadlocking cyclic mutant, which must fail
// alone with preflight's SB902 and diagnostics (generated cases
// themselves always pass preflight).
func TestBatchDifferential(t *testing.T) {
	corpus, err := conform.LoadCorpusDir(filepath.Join("..", "..", "testdata", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	g := conform.NewGenerator(2, corpus)
	deadlocked := deadlockedMutants(t, 2, 200)

	s := New(Config{Workers: 4, Queue: 16, CacheEntries: 128})
	h := s.Handler()
	// The single-endpoint oracle runs on its own server so its cache
	// cannot feed the batch side (or vice versa).
	oracle := New(Config{Workers: 4, Queue: 16, CacheEntries: 128}).Handler()

	const wantServed = 200
	const batchSize = 8
	const maxBatches = 120
	var served, failedItems, rejectedItems, batches int
	for b := 0; served < wantServed && b < maxBatches; b++ {
		type expect struct {
			c       *conform.Case
			invalid bool   // deliberately broken payload
			code    string // expected per-item SB9xx when not servable
		}
		var items []EstimateRequest
		var expects []expect
		for len(items) < batchSize {
			switch len(items) {
			case 2: // a non-scheme payload rides in every batch
				items = append(items, EstimateRequest{PSDF: "<not a scheme>", PSM: "x"})
				expects = append(expects, expect{invalid: true, code: CodeBadScheme})
				continue
			case 5: // as does a half-missing request
				items = append(items, EstimateRequest{PSM: "orphan"})
				expects = append(expects, expect{invalid: true, code: CodeBadRequest})
				continue
			case 7: // and a pair preflight rejects
				items = append(items, deadlocked[b%len(deadlocked)])
				expects = append(expects, expect{code: CodeBadModel})
				continue
			}
			c := g.Next()
			psdfXML, psmXML, err := c.Schemes()
			if err != nil {
				t.Fatalf("batch %d (%s): transform: %v", b, c.Origin, err)
			}
			ex := expect{c: c}
			if _, perr := schema.ParsePSDF(psdfXML); perr != nil {
				ex.code = CodeBadScheme
			} else if pre := core.Preflight(c.Doc.Model, c.Doc.Platform); pre.HasErrors() {
				ex.code = CodeBadModel
			}
			items = append(items, EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)})
			expects = append(expects, ex)
		}

		resp := decodeBatch(t, postBatch(h, batchBody(t, BatchRequest{Items: items})))
		if len(resp.Items) != len(items) {
			t.Fatalf("batch %d: %d items back, want %d", b, len(resp.Items), len(items))
		}
		batches++
		for i, it := range resp.Items {
			ex := expects[i]
			if ex.code != "" {
				// Unservable (corrupt, inexpressible or preflight-
				// rejected) items fail alone, with the same code the
				// single endpoint uses — never the whole envelope.
				if it.Status != http.StatusBadRequest || it.Code != ex.code {
					t.Fatalf("batch %d item %d: status %d code %s, want 400 %s", b, i, it.Status, it.Code, ex.code)
				}
				if ex.code == CodeBadModel {
					want, ok := preflightRejection(t, items[i])
					if !ok || it.Error != want.msg || !reflect.DeepEqual(it.Diagnostics, want.diags) {
						t.Fatalf("batch %d item %d: SB902 %q with %d diagnostic(s), want preflight's %q with %d",
							b, i, it.Error, len(it.Diagnostics), want.msg, len(want.diags))
					}
					rejectedItems++
				}
				failedItems++
				continue
			}
			if it.Status != http.StatusOK {
				t.Fatalf("batch %d item %d (%s): status %d code %s: %s", b, i, ex.c.Origin, it.Status, it.Code, it.Error)
			}
			// Oracle 1: CLI pipeline bytes for the same schemes.
			if err := ex.c.CheckServed(it.Report); err != nil {
				t.Fatalf("batch %d item %d (%s): vs CLI: %v", b, i, ex.c.Origin, err)
			}
			// Oracle 2: sequential single /estimate of the same item.
			rec := post(oracle, body(t, items[i]))
			if rec.Code != http.StatusOK {
				t.Fatalf("batch %d item %d: single oracle status %d", b, i, rec.Code)
			}
			if !bytes.Equal(it.Report, rec.Body.Bytes()) {
				t.Fatalf("batch %d item %d (%s): batch report differs from single /estimate", b, i, ex.c.Origin)
			}
			served++
		}
	}
	if served < wantServed {
		t.Errorf("only %d/%d batch items actually served", served, wantServed)
	}
	if failedItems == 0 {
		t.Error("differential run exercised no failing item")
	}
	if rejectedItems < batches {
		t.Errorf("%d preflight rejections in %d batches, want at least one per batch", rejectedItems, batches)
	}
	t.Logf("batch differential: %d batches, %d served items, %d per-item failures, %d preflight rejections",
		batches, served, failedItems, rejectedItems)
}

// TestBatchEnvelopeErrors covers the whole-envelope rejections: only
// a malformed envelope (not a failing item) may produce a non-200.
func TestBatchEnvelopeErrors(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	s := New(Config{Workers: 1, Queue: 1, CacheEntries: 2, MaxBatchItems: 4})
	h := s.Handler()

	t.Run("method", func(t *testing.T) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/estimate/batch", nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("status %d", rec.Code)
		}
		if e := decodeError(t, rec); e.Code != CodeBadRequest {
			t.Errorf("code %s", e.Code)
		}
	})
	t.Run("bad json", func(t *testing.T) {
		rec := postBatch(h, []byte("{not json"))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d", rec.Code)
		}
		if e := decodeError(t, rec); e.Code != CodeBadRequest {
			t.Errorf("code %s", e.Code)
		}
	})
	t.Run("empty", func(t *testing.T) {
		rec := postBatch(h, batchBody(t, BatchRequest{}))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d", rec.Code)
		}
		if e := decodeError(t, rec); e.Code != CodeBadRequest {
			t.Errorf("code %s", e.Code)
		}
	})
	t.Run("too many items", func(t *testing.T) {
		items := make([]EstimateRequest, 5)
		for i := range items {
			items[i] = EstimateRequest{PSDF: psdfXML, PSM: psmXML}
		}
		rec := postBatch(h, batchBody(t, BatchRequest{Items: items}))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d", rec.Code)
		}
		e := decodeError(t, rec)
		if e.Code != CodeBadRequest || !strings.Contains(e.Error, "limit") {
			t.Errorf("code %s error %q", e.Code, e.Error)
		}
	})
	t.Run("draining", func(t *testing.T) {
		d := New(Config{Workers: 1, Queue: 1})
		ctx, cancel := context.WithTimeout(context.Background(), 0)
		cancel()
		d.Drain(ctx)
		rec := postBatch(d.Handler(), batchBody(t, BatchRequest{Items: []EstimateRequest{{PSDF: psdfXML, PSM: psmXML}}}))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d", rec.Code)
		}
		if e := decodeError(t, rec); e.Code != CodeDraining {
			t.Errorf("code %s", e.Code)
		}
	})
}

// TestBatchSaturatedPool is the fail-fast regression of the
// acceptance list: with the pool saturated from outside, a batch of
// distinct cold items must come back promptly with per-item 429s —
// no deadlock, no wholesale 500 — and the pool must be fully usable
// (no leaked admission token) once capacity returns.
//
// The pool runs with Queue: 0 so saturation is a single deterministic
// fact — the blocker holds the only admission token — instead of a
// race between a helper goroutine and the batch fan-out for the last
// queue slot (a race the fan-out can win under load, after which its
// item waits forever for the blocked worker and the batch deadlocks).
func TestBatchSaturatedPool(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	s := New(Config{Workers: 1, Queue: 0, CacheEntries: 16})
	h := s.Handler()

	// Occupy the worker slot — and with it the pool's only admission
	// token.
	block := make(chan struct{})
	started := make(chan struct{})
	go s.pool.Submit(context.Background(), func() {
		close(started)
		<-block
	})
	<-started

	// Distinct package sizes defeat dedup and the cache: every item
	// needs its own admission.
	items := []EstimateRequest{
		{PSDF: psdfXML, PSM: psmXML, PackageSize: 6},
		{PSDF: psdfXML, PSM: psmXML, PackageSize: 9},
		{PSDF: psdfXML, PSM: psmXML, PackageSize: 12},
	}
	resp := decodeBatch(t, postBatch(h, batchBody(t, BatchRequest{Items: items})))
	if resp.Served != 0 || resp.Failed != len(items) {
		t.Fatalf("saturated batch served=%d failed=%d, want 0/%d", resp.Served, resp.Failed, len(items))
	}
	for i, it := range resp.Items {
		if it.Status != http.StatusTooManyRequests || it.Code != CodeQueueFull {
			t.Errorf("item %d: status %d code %s, want 429 %s", i, it.Status, it.Code, CodeQueueFull)
		}
	}

	// Release the blocker and wait for its token to come all the way
	// back: Submit only returns nil after its own releases have run,
	// so one successful no-op submission proves the handoff finished
	// and nothing was leaked or double-released by the shed items.
	close(block)
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.Submit(context.Background(), func() {}) != nil {
		if time.Now().After(deadline) {
			t.Fatal("pool never recovered after the blocker released")
		}
		time.Sleep(time.Millisecond)
	}

	// Identical items dedup into one group — exactly one admission on
	// the single-token pool — so the recovery batch is deterministic
	// where re-sending three distinct items would shed its own
	// siblings.
	same := []EstimateRequest{
		{PSDF: psdfXML, PSM: psmXML, PackageSize: 6},
		{PSDF: psdfXML, PSM: psmXML, PackageSize: 6},
		{PSDF: psdfXML, PSM: psmXML, PackageSize: 6},
	}
	resp = decodeBatch(t, postBatch(h, batchBody(t, BatchRequest{Items: same})))
	if resp.Served != len(same) || resp.Failed != 0 {
		t.Fatalf("post-release batch served=%d failed=%d: %+v", resp.Served, resp.Failed, resp.Items)
	}
	if resp.Deduplicated != len(same)-1 {
		t.Errorf("post-release batch deduplicated=%d, want %d", resp.Deduplicated, len(same)-1)
	}
}

// TestBatchSharesFlightWithSingle pins the cross-endpoint coalescing:
// a batch item identical to an in-flight single request must attach
// to that flight instead of emulating again.
func TestBatchSharesFlightWithSingle(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	reqBody := body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML})

	release := make(chan struct{})
	entered := make(chan struct{})
	emulations := 0
	s := New(Config{Workers: 2, Queue: 4, CacheEntries: 8,
		OnEmulate: func() { emulations++; close(entered); <-release }})
	joined := make(chan struct{})
	s.flights.waiterHook = func(string) { close(joined) }
	h := s.Handler()

	singleDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { singleDone <- post(h, reqBody) }()
	<-entered // the single request leads and is held mid-emulation

	batchDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		batchDone <- postBatch(h, batchBody(t, BatchRequest{Items: []EstimateRequest{{PSDF: psdfXML, PSM: psmXML}}}))
	}()
	<-joined // the batch item is parked on the single request's flight
	close(release)

	single := <-singleDone
	resp := decodeBatch(t, <-batchDone)
	if emulations != 1 {
		t.Fatalf("%d emulations across endpoints, want 1", emulations)
	}
	it := resp.Items[0]
	if it.Status != http.StatusOK || it.Cache != "coalesced" {
		t.Fatalf("batch item status %d cache %q, want 200 coalesced", it.Status, it.Cache)
	}
	if !bytes.Equal(it.Report, single.Body.Bytes()) {
		t.Error("coalesced batch item differs from the single response body")
	}
}

// TestBatchRejectedDuplicates pins a batch that repeats a rejected
// item among valid duplicates to the bytes built from its parts: each
// rejected item carries preflight's 400 SB902, the valid ones the
// fresh report, and only the valid duplicate counts as deduplicated —
// a rejected item is failed however many copies of it the batch
// carries, byte-identical copies and re-encoded ones alike. It runs on
// a cold server and again once the valid pairs are cached.
func TestBatchRejectedDuplicates(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	rejected, _ := rejectedRequests(t, 40)
	r1, r2 := rejected[0], rejected[len(rejected)-1]
	r1Reencoded := EstimateRequest{PSDF: r1.PSDF + "\n", PSM: r1.PSM}
	a := EstimateRequest{PSDF: psdfXML, PSM: psmXML}
	b := EstimateRequest{PSDF: psdfXML, PSM: psmXML, PackageSize: 9}
	items := []EstimateRequest{a, r1, a, r1, r2, b, r1Reencoded}

	m, err := schema.ParsePSDF([]byte(psdfXML))
	if err != nil {
		t.Fatal(err)
	}
	plat, err := schema.ParsePSM([]byte(psmXML))
	if err != nil {
		t.Fatal(err)
	}
	reportA := freshReport(t, m, plat)
	plat.PackageSize = 9
	reportB := freshReport(t, m, plat)
	want := func(cache string) []byte {
		outs := make([]outcome, len(items))
		for i, req := range items {
			switch req {
			case a:
				outs[i] = outcome{status: http.StatusOK, cache: cache, body: reportA}
			case b:
				outs[i] = outcome{status: http.StatusOK, cache: cache, body: reportB}
			default:
				out, ok := preflightRejection(t, req)
				if !ok {
					t.Fatalf("item %d: preflight passes it", i)
				}
				outs[i] = out
			}
		}
		body, err := marshalBatchResponse(outs, 1)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	s := New(Config{Workers: 2, Queue: 8, CacheEntries: 16})
	h := s.Handler()
	req := batchBody(t, BatchRequest{Items: items})
	for _, cache := range []string{"miss", "hit"} {
		rec := postBatch(h, req)
		if got := rec.Body.Bytes(); rec.Code != http.StatusOK || !bytes.Equal(got, want(cache)) {
			t.Fatalf("%s batch: status %d, body\n%s\nwant\n%s", cache, rec.Code, got, want(cache))
		}
		resp := decodeBatch(t, rec)
		if resp.Served != 3 || resp.Failed != 4 || resp.Deduplicated != 1 {
			t.Errorf("%s batch: served=%d failed=%d dedup=%d, want 3/4/1", cache, resp.Served, resp.Failed, resp.Deduplicated)
		}
	}
}
