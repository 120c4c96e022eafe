package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"segbus/internal/m2t"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// wrappedClockRequest is a pair every gate admits whose emulation
// panics: a two-flow chain P0→P1→P2 (4 items per flow, package size
// 2) on two 90 MHz segments with a header of 2⁶² ticks, so the first
// transfer's time wraps negative and the event kernel refuses it.
func wrappedClockRequest(t *testing.T) EstimateRequest {
	t.Helper()
	m := psdf.NewModel("wrap")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 4, Order: 1, Ticks: 1})
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 4, Order: 2, Ticks: 1})
	plat := platform.New("wrap-plat", 90*platform.MHz, 2)
	plat.HeaderTicks = 1 << 62
	plat.AddSegment(90*platform.MHz, 0, 1)
	plat.AddSegment(90*platform.MHz, 2)
	psdfXML, err := m2t.GeneratePSDF(m)
	if err != nil {
		t.Fatal(err)
	}
	psmXML, err := m2t.GeneratePSM(plat)
	if err != nil {
		t.Fatal(err)
	}
	return EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)}
}

// TestBatchEmulationPanicIsCoded: a batch item whose emulation panics
// gets a coded 500 SB906 item, and the server keeps serving.
func TestBatchEmulationPanicIsCoded(t *testing.T) {
	s := New(Config{Workers: 2, Queue: 4, CacheEntries: 8})
	h := s.Handler()
	rec := postBatch(h, batchBody(t, BatchRequest{Items: []EstimateRequest{wrappedClockRequest(t)}}))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 1 || br.Items[0].Status != http.StatusInternalServerError || br.Items[0].Code != CodeInternal {
		t.Fatalf("batch item = %+v, want a 500 %s", br.Items, CodeInternal)
	}
	if !strings.Contains(br.Items[0].Error, "panicked") {
		t.Errorf("batch item error %q does not report the panic", br.Items[0].Error)
	}
	psdfXML, psmXML := goldenSchemes(t)
	if rec := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML})); rec.Code != http.StatusOK {
		t.Fatalf("after the panic, MP3 status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestEstimateEmulationPanicIsCoded: a single /estimate whose
// emulation panics gets a coded 500 SB906 body, not a dropped
// connection.
func TestEstimateEmulationPanicIsCoded(t *testing.T) {
	s := New(Config{Workers: 2, Queue: 4, CacheEntries: 8})
	rec := post(s.Handler(), body(t, wrappedClockRequest(t)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Code != CodeInternal || !strings.Contains(e.Error, "panicked") {
		t.Errorf("error body %+v, want %s reporting the panic", e, CodeInternal)
	}
}
