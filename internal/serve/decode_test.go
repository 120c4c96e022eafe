package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"segbus/internal/conform"
)

// oracleDecode is what handleEstimate did before DecodeEstimate, and
// what DecodeEstimate must reproduce.
func oracleDecode(body []byte, req *EstimateRequest) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// errText renders an error for comparison; nil is "<nil>".
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkDecode holds DecodeEstimate to encoding/json on body. The
// request DecodeEstimate starts from is not zero: fields absent from
// body must come out zero all the same.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	got := EstimateRequest{PSDF: "old", PSM: "old", PackageSize: 3, Policy: "fifo",
		DetectTicks: 5, Overheads: &OverheadsSpec{GrantTicks: 1, SyncTicks: 2, CASetTicks: 3, CAResetTicks: 4}}
	var want EstimateRequest
	gotErr, wantErr := DecodeEstimate(body, &got), oracleDecode(body, &want)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("body %q: error %q, encoding/json %q", body, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: decoded %+v (overheads %+v), encoding/json %+v (overheads %+v)",
			body, got, got.Overheads, want, want.Overheads)
	}
}

// fallbackSeeds are envelopes encoding/json accepts or rejects that
// the single-pass reader leaves to it: one per fallback trigger.
var fallbackSeeds = []string{
	`{"PSDF":"a","psm":"b"}`,                        // case-variant key
	`{"psdf":"a","psm":"b","extra":[1,{}]}`,         // unknown key
	`{"psdf":"a","psdf":"b"}`,                       // duplicate key
	`{"overheads":{"sync_ticks":1,"sync_ticks":2}}`, // duplicate nested key
	`{"psdf":null,"overheads":null}`,                // null
	`{"package_size":1.5}`,                          // fraction
	`{"detect_ticks":1e3}`,                          // exponent
	`{"package_size":012}`,                          // leading zero
	`{"detect_ticks":9223372036854775808}`,          // overflow
	`{"detect_ticks":-99999999999999999999}`,        // overflow, 20 digits
	`{"psdf":"\ud83d\ude00"}`,                       // surrogate pair
	`{"psdf":"\udc00"}`,                             // lone surrogate
	"{\"psdf\":\"\xff\xfe\"}",                       // invalid UTF-8
	"{\"psdf\":\"a\x01b\"}",                         // raw control character
	`{"psdf":"a"} {"psm":"b"}`,                      // trailing non-whitespace
	`{"psdf":"a"}}`,                                 // trailing non-whitespace
	`["psdf","psm"]`,                                // non-object body
	`"psdf"`,                                        // non-object body
	``,                                              // empty body
	`{"psdf":"a",}`,                                 // trailing comma
	`{"psdf":"a"`,                                   // truncated
	`{"ps\u0064f":"a"}`,                             // escaped key
	`{"psdf":1}`,                                    // type mismatch
	`{"overheads":{"grant_ticks":"1"}}`,             // type mismatch, nested
	`{"psdf":"\x"}`,                                 // bad escape
	`{"psdf":"\u12G4"}`,                             // bad \u escape
}

// fastSeeds are envelopes the single-pass reader must accept.
var fastSeeds = []string{
	`{}`,
	" \t\r\n{ \"psdf\" : \"a\" ,\n\t\"psm\":\"b\" } \n",
	`{"psdf":"\"\\\/\b\f\n\r\t\u00e9\u20ac\u0000\uFFFD\u003c\u003e\u0026","psm":""}`,
	`{"psdf":"é€😀","psm":"\u2028"}`,
	`{"package_size":-0,"detect_ticks":-9223372036854775808}`,
	`{"package_size":9223372036854775807,"detect_ticks":0}`,
	`{"overheads":{}}`,
	`{"overheads":{"grant_ticks":1,"sync_ticks":-2,"ca_set_ticks":3,"ca_reset_ticks":4},"policy":"fifo"}`,
}

// FuzzDecodeEstimate holds DecodeEstimate to encoding/json: on every
// input both yield the same request and the same error text.
func FuzzDecodeEstimate(f *testing.F) {
	for _, s := range fastSeeds {
		f.Add([]byte(s))
	}
	for _, s := range fallbackSeeds {
		f.Add([]byte(s))
	}
	for _, b := range servedBodies(f, 2) {
		f.Add(b)
	}
	f.Fuzz(checkDecode)
}

// servedBodies returns the json.Marshal bodies of the first n
// servable conformance pairs of seed 1 — the shape of the serving
// benchmark's requests.
func servedBodies(tb testing.TB, n int) [][]byte {
	tb.Helper()
	cases, err := conform.ServableCases(1, n, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return marshalCases(tb, cases, EstimateRequest{})
}

// marshalCases marshals each case's schemes under opts.
func marshalCases(tb testing.TB, cases []*conform.Case, opts EstimateRequest) [][]byte {
	tb.Helper()
	out := make([][]byte, len(cases))
	for i, c := range cases {
		psdfXML, psmXML, err := c.Schemes()
		if err != nil {
			tb.Fatal(err)
		}
		req := opts
		req.PSDF, req.PSM = string(psdfXML), string(psmXML)
		if out[i], err = json.Marshal(req); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// TestDecodeSeeds pins the seeds' roles: fastSeeds take the fast path,
// fallbackSeeds do not, and both agree with encoding/json.
func TestDecodeSeeds(t *testing.T) {
	for _, s := range fastSeeds {
		if !decodeFast([]byte(s), new(EstimateRequest)) {
			t.Errorf("fast path refused %q", s)
		}
		checkDecode(t, []byte(s))
	}
	for _, s := range fallbackSeeds {
		req := EstimateRequest{PSDF: "kept"}
		if decodeFast([]byte(s), &req) {
			t.Errorf("fast path accepted %q", s)
		}
		if req != (EstimateRequest{PSDF: "kept"}) {
			t.Errorf("refused %q but wrote %+v", s, req)
		}
		checkDecode(t, []byte(s))
	}
}

// TestDecodeFastPathCorpus requires every body the repository's
// clients send to take the fast path and decode as encoding/json
// does: 200 servable pairs under each option, the segbus-load
// traffic shape, and tab-indented re-encodings like the serving
// benchmark's.
func TestDecodeFastPathCorpus(t *testing.T) {
	cases, err := conform.ServableCases(1, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := conform.LoadCorpusDir(filepath.Join("..", "..", "testdata", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	load, err := conform.ServableCases(1, 13, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string][][]byte{
		"plain":        marshalCases(t, cases, EstimateRequest{}),
		"policy":       marshalCases(t, cases, EstimateRequest{Policy: "fixed-priority"}),
		"detect_ticks": marshalCases(t, cases, EstimateRequest{DetectTicks: 7}),
		"package_size": marshalCases(t, cases, EstimateRequest{PackageSize: 12}),
		"overheads": marshalCases(t, cases, EstimateRequest{
			Overheads: &OverheadsSpec{GrantTicks: 8, SyncTicks: 2, CASetTicks: 3, CAResetTicks: 1}}),
		"segbus-load": marshalCases(t, load, EstimateRequest{}),
	}
	for i, c := range cases[:20] {
		psdfXML, psmXML, err := c.Schemes()
		if err != nil {
			t.Fatal(err)
		}
		tabs := strings.NewReplacer("\n  ", "\n\t")
		b, err := json.Marshal(EstimateRequest{
			PSDF: "<!-- request " + fmt.Sprint(i) + " -->\n" + tabs.Replace(string(psdfXML)),
			PSM:  tabs.Replace(string(psmXML)),
		})
		if err != nil {
			t.Fatal(err)
		}
		variants["reencoded"] = append(variants["reencoded"], b)
	}
	for name, bodies := range variants {
		for i, b := range bodies {
			if !decodeFast(b, new(EstimateRequest)) {
				t.Fatalf("%s body %d: fast path refused it", name, i)
			}
			checkDecode(t, b)
		}
	}
}

// TestDecodeBodyOversize holds the handler's body read to what a
// json.Decoder over http.MaxBytesReader did: a body past the limit
// still decodes when its JSON value ends within the limit, and fails
// with the reader's error otherwise; a syntax error inside the limit
// wins over the limit. Bodies straddle the limit by up to 8 bytes
// either way, with known and unknown lengths and one-byte reads; the
// 4096-byte limit makes an unknown-length read grow its buffer.
func TestDecodeBodyOversize(t *testing.T) {
	for _, limit := range []int{64, 4096} {
		s := New(Config{Workers: 1, Queue: 1, MaxBodyBytes: int64(limit)})
		var bodies []string
		for n := limit - 8; n <= limit+8; n++ {
			value := `{"psdf":"` + strings.Repeat("a", n-len(`{"psdf":""}`)) + `"}`
			bodies = append(bodies,
				value,
				value+"  ",
				value+` {"psm":"b"}`,
				value[:len(value)-1]+`,"psm"`+strings.Repeat(" ", 16)+`:"b"}`,
				value[:len(value)-2]+`\u0026"}`,
				strings.Replace(value, `"a`, `"a"x`, 1)+strings.Repeat(" ", 16),
				strings.Repeat(" ", n)+`{}`,
			)
		}
		for _, b := range bodies {
			for _, mode := range []string{"sized", "chunked", "one-byte"} {
				newReq := func() *http.Request {
					var rd io.Reader = strings.NewReader(b)
					if mode == "one-byte" {
						rd = iotest.OneByteReader(rd)
					}
					r := httptest.NewRequest(http.MethodPost, "/estimate", rd)
					if mode != "sized" {
						r.ContentLength = -1
					}
					return r
				}
				var got, want EstimateRequest
				gotErr := s.decodeBody(httptest.NewRecorder(), newReq(), &got)
				wantErr := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), newReq().Body, int64(limit))).Decode(&want)
				if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("limit %d, %s body of %d bytes %q:\n got %+v, %v\nwant %+v, %v",
						limit, mode, len(b), b, got, gotErr, want, wantErr)
				}
			}
		}
	}

	const limit = 64
	s := New(Config{Workers: 1, Queue: 1, MaxBodyBytes: limit})
	// End to end: a value inside the limit is served (here as a bad
	// scheme) even though the body runs past it; one crossing the
	// limit is refused as a bad request.
	h := s.Handler()
	within := `{"psdf":"x","psm":"y"}` + strings.Repeat(" ", limit)
	if e := decodeError(t, post(h, []byte(within))); e.Code != CodeBadScheme {
		t.Errorf("value within the limit: %+v, want %s", e, CodeBadScheme)
	}
	crossing := `{"psdf":"` + strings.Repeat("x", limit) + `","psm":"y"}`
	if e := decodeError(t, post(h, []byte(crossing))); e.Code != CodeBadRequest ||
		e.Error != "request body: http: request body too large" {
		t.Errorf("value crossing the limit: %+v", e)
	}
}

// TestDecodeEstimateAllocs fences the fast path's allocations on the
// serving corpus: one string per scheme. encoding/json takes 15.
func TestDecodeEstimateAllocs(t *testing.T) {
	bodies := servedBodies(t, 64)
	worst := 0.0
	for _, b := range bodies {
		var req EstimateRequest
		allocs := testing.AllocsPerRun(20, func() {
			req = EstimateRequest{}
			if err := DecodeEstimate(b, &req); err != nil {
				t.Fatal(err)
			}
		})
		worst = max(worst, allocs)
	}
	if worst > 3 {
		t.Errorf("DecodeEstimate allocates up to %.0f times per body, want <= 3", worst)
	}
}

// BenchmarkDecodeEstimate measures request decoding over the 64
// servable bodies the serving benchmark sends, against encoding/json
// on the same bodies.
func BenchmarkDecodeEstimate(b *testing.B) {
	bodies := servedBodies(b, 64)
	size := 0
	for _, body := range bodies {
		size += len(body)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte, *EstimateRequest) error
	}{
		{"DecodeEstimate", DecodeEstimate},
		{"encoding_json", oracleDecode},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(size / len(bodies)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req EstimateRequest
				if err := bc.decode(bodies[i%len(bodies)], &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
