package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestServerMetricsNilSafe(t *testing.T) {
	m := NewServerMetrics(nil)
	m.InFlight.Set(3)
	m.CacheHits.Inc()
	m.Request("/estimate", "200", 123) // must not panic
	if m.CacheHits.Value() != 0 {
		t.Error("nil-backed counter retained a value")
	}
}

func TestServerMetricsRecorded(t *testing.T) {
	reg := NewRegistry()
	m := NewServerMetrics(reg)
	m.CacheHits.Inc()
	m.CacheMisses.Add(2)
	m.InFlight.Set(1)
	m.Request("/estimate", "200", 500)
	m.Request("/estimate", "429", 10)
	m.Request("/healthz", "200", 5)

	snap := reg.Snapshot(true)
	checks := map[string]float64{
		MetricServedCacheHits:   1,
		MetricServedCacheMisses: 2,
		MetricServedInFlight:    1,
		MetricServedRequests + `{code="200",endpoint="/estimate"}`: 1,
		MetricServedRequests + `{code="429",endpoint="/estimate"}`: 1,
		MetricServedLatency + `{endpoint="/estimate"}` + "_count":  2,
		MetricServedLatency + `{endpoint="/estimate"}` + "_sum":    510,
	}
	for id, want := range checks {
		if got := snap[id]; got != want {
			t.Errorf("%s = %v, want %v", id, got, want)
		}
	}
}

func TestServerMetricsConcurrent(t *testing.T) {
	reg := NewRegistry()
	m := NewServerMetrics(reg)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				m.Request("/estimate", "200", int64(j))
				m.CacheHits.Inc()
			}
		}()
	}
	wg.Wait()
	if got := m.CacheHits.Value(); got != 1600 {
		t.Errorf("CacheHits = %d, want 1600", got)
	}
	snap := reg.Snapshot(true)
	if got := snap[MetricServedRequests+`{code="200",endpoint="/estimate"}`]; got != 1600 {
		t.Errorf("request counter = %v, want 1600", got)
	}
}

func TestHandlerExposition(t *testing.T) {
	reg := NewRegistry()
	m := NewServerMetrics(reg)
	m.Request("/estimate", "200", 42)
	rec := httptest.NewRecorder()
	Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP " + MetricServedRequests,
		MetricServedRequests + `{code="200",endpoint="/estimate"} 1`,
		MetricServedLatency,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestHandlerNilRegistry(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Errorf("nil registry: status %d body %q", rec.Code, rec.Body.String())
	}
}

// TestRequestExpositionMatchesRegistry pins the cached request handles
// to the instruments the registry resolves by name: the same traffic
// recorded through ServerMetrics and through direct registry lookups
// exposes the same text.
func TestRequestExpositionMatchesRegistry(t *testing.T) {
	cached, direct := NewRegistry(), NewRegistry()
	m := NewServerMetrics(cached)
	NewServerMetrics(direct)
	traffic := []struct {
		endpoint, status string
		us               int64
		traceID          string
	}{
		{"/estimate", "200", 90, ""},
		{"/estimate", "200", 250, "deadbeef"},
		{"/estimate", "400", 40, ""},
		{"/estimate/batch", "200", 1_200, "cafef00d"},
		{"/healthz", "200", 3, ""},
		{"/estimate", "200", 70, ""},
		{"/estimate", "429", 5, "0badc0de"},
		{"/metrics", "200", 12, ""},
	}
	for _, r := range traffic {
		count := direct.Counter(MetricServedRequests, "endpoint", r.endpoint, "code", r.status)
		latency := direct.Histogram(MetricServedLatency, ServedLatencyBoundsUs, "endpoint", r.endpoint)
		count.Inc()
		if r.traceID == "" {
			m.Request(r.endpoint, r.status, r.us)
			latency.Observe(r.us)
		} else {
			m.RequestTraced(r.endpoint, r.status, r.us, r.traceID)
			latency.ObserveExemplar(r.us, r.traceID)
		}
	}
	var got, want strings.Builder
	if err := cached.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := direct.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("exposition differs from direct registry lookups\n-- got --\n%s-- want --\n%s", got.String(), want.String())
	}
}
