package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"segbus/internal/conform"
	"segbus/internal/core"
	"segbus/internal/emulator"
	"segbus/internal/obs"
	"segbus/internal/schema"
)

// goldenSchemes reads the reviewed MP3 schemes from testdata/golden.
func goldenSchemes(t *testing.T) (psdfXML, psmXML string) {
	t.Helper()
	a, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "mp3-psdf.xsd"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "mp3-psm.xsd"))
	if err != nil {
		t.Fatal(err)
	}
	return string(a), string(b)
}

// body marshals an estimate request.
func body(t *testing.T, req EstimateRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// post runs one POST /estimate through the handler.
func post(h http.Handler, b []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(b)))
	return rec
}

// decodeError asserts a non-200 response is a well-formed
// ErrorResponse and returns it.
func decodeError(t *testing.T, rec *httptest.ResponseRecorder) ErrorResponse {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("non-200 body is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if e.Code == "" {
		t.Fatalf("non-200 body has no diagnostic code:\n%s", rec.Body.String())
	}
	return e
}

func TestEstimateGolden(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	s := New(Config{Workers: 2, Queue: 2, CacheEntries: 8})
	h := s.Handler()

	rec := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Segbus-Cache"); got != "miss" {
		t.Errorf("first request cache state = %q, want miss", got)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}

	// The body must be byte-identical to the CLI pipeline's report
	// JSON for the same schemes.
	est, err := core.EstimateXML([]byte(psdfXML), []byte(psmXML), 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := est.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("served body differs from segbus-emu -report-json output:\n%s\nvs\n%s", rec.Body.Bytes(), want)
	}

	// The repeat is a cache hit with the identical payload.
	rec2 := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML}))
	if rec2.Code != http.StatusOK || rec2.Header().Get("X-Segbus-Cache") != "hit" {
		t.Fatalf("repeat: status %d cache %q", rec2.Code, rec2.Header().Get("X-Segbus-Cache"))
	}
	if !bytes.Equal(rec2.Body.Bytes(), rec.Body.Bytes()) {
		t.Error("cache hit returned different bytes than the cold run")
	}
}

// TestEstimateScenarioGoldens serves every scenario in the corpus and
// checks each response against the canonical report JSON.
func TestEstimateScenarioGoldens(t *testing.T) {
	docs, err := conform.LoadCorpusDir(filepath.Join("..", "..", "testdata", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("scenario corpus is empty")
	}
	s := New(Config{Workers: 2, Queue: 4, CacheEntries: 16})
	h := s.Handler()
	served := 0
	for _, doc := range docs {
		c := conform.NewCase(doc)
		psdfXML, psmXML, err := c.Schemes()
		if err != nil {
			t.Fatalf("%s: %v", doc.Model.Name(), err)
		}
		rec := post(h, body(t, EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)}))
		if _, perr := schema.ParsePSDF(psdfXML); perr != nil {
			// A scheme that does not parse back must come back as a
			// coded scheme rejection, not a 500 or a bogus report.
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s: unparseable scheme served status %d", doc.Model.Name(), rec.Code)
			}
			if e := decodeError(t, rec); e.Code != CodeBadScheme {
				t.Errorf("%s: code %s", doc.Model.Name(), e.Code)
			}
			continue
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", doc.Model.Name(), rec.Code, rec.Body.String())
		}
		if err := c.CheckServed(rec.Body.Bytes()); err != nil {
			t.Errorf("%s: %v", doc.Model.Name(), err)
		}
		served++
	}
	// Every scenario renders to schemes that parse back, the roles
	// scenario's flow to the system output included.
	if served != len(docs) {
		t.Fatalf("%d of %d scenarios served", served, len(docs))
	}
}

func TestEstimateOptionsChangeResult(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	s := New(Config{Workers: 2, Queue: 2, CacheEntries: 8})
	h := s.Handler()

	base := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML}))
	packaged := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML, PackageSize: 9}))
	overhead := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML,
		Overheads: &OverheadsSpec{GrantTicks: 1, SyncTicks: 2, CASetTicks: 1, CAResetTicks: 1}}))
	for name, rec := range map[string]*httptest.ResponseRecorder{"package": packaged, "overheads": overhead} {
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("X-Segbus-Cache") != "miss" {
			t.Errorf("%s: option variant served from cache", name)
		}
		if bytes.Equal(rec.Body.Bytes(), base.Body.Bytes()) {
			t.Errorf("%s: option variant produced the base report", name)
		}
	}
}

func TestEstimateBadRequests(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	s := New(Config{Workers: 1, Queue: 1, CacheEntries: 2})
	h := s.Handler()

	t.Run("method", func(t *testing.T) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/estimate", nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("status %d", rec.Code)
		}
		if e := decodeError(t, rec); e.Code != CodeBadRequest {
			t.Errorf("code %s", e.Code)
		}
	})
	t.Run("bad json", func(t *testing.T) {
		rec := post(h, []byte("{not json"))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d", rec.Code)
		}
		if e := decodeError(t, rec); e.Code != CodeBadRequest {
			t.Errorf("code %s", e.Code)
		}
	})
	t.Run("missing schemes", func(t *testing.T) {
		rec := post(h, body(t, EstimateRequest{PSDF: psdfXML}))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d", rec.Code)
		}
		if e := decodeError(t, rec); e.Code != CodeBadRequest {
			t.Errorf("code %s", e.Code)
		}
	})
	t.Run("unknown policy", func(t *testing.T) {
		rec := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML, Policy: "round-robin"}))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d", rec.Code)
		}
		if e := decodeError(t, rec); e.Code != CodeBadRequest {
			t.Errorf("code %s", e.Code)
		}
	})
	t.Run("schema diagnostics", func(t *testing.T) {
		// Well-formed XML describing a broken model: a zero-item flow
		// must be rejected with the analyzer's SB003.
		broken := strings.ReplaceAll(psdfXML, "P1_576_1_250", "P1_0_1_250")
		rec := post(h, body(t, EstimateRequest{PSDF: broken, PSM: psmXML}))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		e := decodeError(t, rec)
		if e.Code != CodeBadScheme {
			t.Fatalf("code %s: %+v", e.Code, e)
		}
		found := false
		for _, d := range e.Diagnostics {
			if d.Code == "SB003" {
				found = true
			}
		}
		if !found {
			t.Errorf("SB003 diagnostic missing: %+v", e.Diagnostics)
		}
	})
	t.Run("not xml", func(t *testing.T) {
		rec := post(h, body(t, EstimateRequest{PSDF: "hello", PSM: psmXML}))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d", rec.Code)
		}
		if e := decodeError(t, rec); e.Code != CodeBadScheme {
			t.Errorf("code %s", e.Code)
		}
	})
	t.Run("body too large", func(t *testing.T) {
		small := New(Config{Workers: 1, Queue: 1, MaxBodyBytes: 64})
		rec := post(small.Handler(), body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML}))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d", rec.Code)
		}
		if e := decodeError(t, rec); e.Code != CodeBadRequest {
			t.Errorf("code %s", e.Code)
		}
	})
}

// TestEstimateRejectsBadOptions pins the option gate: tick counts the
// emulator refuses — negative, or past emulator.MaxTicks where they
// could wrap the picosecond clock — are bad requests, answered before
// any emulation runs, with the emulator's own message.
func TestEstimateRejectsBadOptions(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	emulations := 0
	s := New(Config{Workers: 1, Queue: 1, CacheEntries: 4, OnEmulate: func() { emulations++ }})
	h := s.Handler()
	for _, c := range []struct {
		req  EstimateRequest
		want string
	}{
		{EstimateRequest{DetectTicks: -5}, "emulator: negative detect ticks -5"},
		{EstimateRequest{DetectTicks: math.MaxInt64}, "emulator: detect ticks 9223372036854775807 exceed the limit of 1048576"},
		{EstimateRequest{DetectTicks: emulator.MaxTicks + 1}, "emulator: detect ticks 1048577 exceed the limit of 1048576"},
		{EstimateRequest{Overheads: &OverheadsSpec{SyncTicks: -1}},
			"emulator: negative overhead ticks in {GrantTicks:0 SyncTicks:-1 CASetTicks:0 CAResetTicks:0}"},
		{EstimateRequest{Overheads: &OverheadsSpec{CAResetTicks: math.MaxInt64}},
			"emulator: overhead ticks in {GrantTicks:0 SyncTicks:0 CASetTicks:0 CAResetTicks:9223372036854775807} exceed the limit of 1048576"},
	} {
		c.req.PSDF, c.req.PSM = psdfXML, psmXML
		rec := post(h, body(t, c.req))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("want %q: status %d: %s", c.want, rec.Code, rec.Body.String())
		}
		if e := decodeError(t, rec); e.Code != CodeBadRequest || e.Error != c.want {
			t.Errorf("got %+v, want %s %q", e, CodeBadRequest, c.want)
		}
	}
	if emulations != 0 {
		t.Errorf("%d emulations ran for rejected options", emulations)
	}
	// The limit itself is served.
	rec := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML, DetectTicks: emulator.MaxTicks}))
	if rec.Code != http.StatusOK {
		t.Fatalf("detect ticks at the limit: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestEstimatePreflightRejects(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	// The schemes disagree once the model gains a process the
	// platform does not host: preflight must reject with SB0xx
	// mapping diagnostics rather than emulate.
	broken := strings.ReplaceAll(psdfXML,
		`<xs:element name="p14" type="P14"/>`,
		`<xs:element name="p14" type="P14"/><xs:element name="p15" type="P15"/>`)
	broken = strings.ReplaceAll(broken,
		`<xs:complexType name="P14">`,
		`<xs:complexType name="P15"><xs:all><xs:element name="P14_36_9_10" type="Transfer"/></xs:all></xs:complexType><xs:complexType name="P14">`)
	s := New(Config{Workers: 1, Queue: 1})
	rec := post(s.Handler(), body(t, EstimateRequest{PSDF: broken, PSM: psmXML}))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	e := decodeError(t, rec)
	if e.Code != CodeBadModel {
		t.Fatalf("code %s (%s)", e.Code, e.Error)
	}
	if len(e.Diagnostics) == 0 {
		t.Error("preflight rejection carries no diagnostics")
	}
}

func TestEstimateQueueFull(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	s := New(Config{Workers: 1, Queue: 0, CacheEntries: 0})
	h := s.Handler()

	// Occupy the only worker slot directly through the pool.
	block := make(chan struct{})
	started := make(chan struct{})
	go s.pool.Submit(context.Background(), func() {
		close(started)
		<-block
	})
	<-started
	defer close(block)

	rec := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML}))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Code != CodeQueueFull {
		t.Errorf("code %s", e.Code)
	}
}

func TestEstimateDeadline(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	s := New(Config{Workers: 1, Queue: 1, RequestTimeout: 30 * time.Millisecond})
	h := s.Handler()

	// With the worker held, the request is admitted to the queue and
	// must give up when its deadline passes — freeing its slot.
	block := make(chan struct{})
	started := make(chan struct{})
	go s.pool.Submit(context.Background(), func() {
		close(started)
		<-block
	})
	<-started
	defer close(block)

	rec := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML}))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Code != CodeDeadline {
		t.Errorf("code %s", e.Code)
	}
}

func TestHealthz(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 1, CacheEntries: 4})
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var b healthzBody
	if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.Status != "ok" {
		t.Errorf("status %q", b.Status)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/healthz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz status %d", rec.Code)
	}
	decodeError(t, rec)
}

func TestMetricsEndpoint(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, Queue: 1, CacheEntries: 4, Registry: reg})
	h := s.Handler()

	post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML}))        // miss
	post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML}))        // raw-index hit (verbatim repeat)
	post(h, body(t, EstimateRequest{PSDF: psdfXML + "\n", PSM: psmXML})) // canonical cache hit (new bytes, same model)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	exposition := rec.Body.String()
	for _, want := range []string{
		obs.MetricServedCacheHits + " 1",
		obs.MetricServedCacheMisses + " 1",
		obs.MetricServedRawHits + " 1",
		obs.MetricServedPoolMisses + " 1",
		obs.MetricServedRequests + `{code="200",endpoint="/estimate"} 3`,
		"# HELP " + obs.MetricServedLatency,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q:\n%s", want, exposition)
		}
	}
}

func TestDrain(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	s := New(Config{Workers: 1, Queue: 1})
	h := s.Handler()

	// Hold the worker so the drain has something to wait for.
	block := make(chan struct{})
	started := make(chan struct{})
	go s.pool.Submit(context.Background(), func() {
		close(started)
		<-block
	})
	<-started

	// A bounded drain cannot finish while the job runs.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if s.Drain(ctx) {
		t.Fatal("drain reported success with a job in flight")
	}
	cancel()

	// Draining: health flips to 503 and estimates are shed with the
	// draining code.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz status %d", rec.Code)
	}
	rec = post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML}))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /estimate status %d", rec.Code)
	}
	if e := decodeError(t, rec); e.Code != CodeDraining {
		t.Errorf("code %s", e.Code)
	}

	// Once the in-flight job finishes the drain completes.
	close(block)
	if !s.Drain(context.Background()) {
		t.Fatal("drain did not complete after the job finished")
	}
}
