package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// reencoded is one /estimate body re-encoded as the serving
// benchmark's warm workload does for its canonical hits: a comment
// after the PSDF's XML declaration and a tab for each two-space indent
// of both schemes. The comment carries a counter, so each request
// misses the raw index but parses to the same pair; the body is
// prefix, the counter, suffix.
type reencoded struct{ prefix, suffix []byte }

// counterMark stands for the counter while the template is built.
const counterMark = "REQUEST-COUNTER"

func reencode(tb testing.TB, body []byte) reencoded {
	tb.Helper()
	var req EstimateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		tb.Fatal(err)
	}
	decl, rest, ok := strings.Cut(req.PSDF, "\n")
	if !ok {
		tb.Fatal("PSDF scheme has a single line")
	}
	req.PSDF = decl + "\n<!-- request " + counterMark + " -->\n" + reindent(rest)
	req.PSM = reindent(req.PSM)
	out, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	i := bytes.Index(out, []byte(counterMark))
	return reencoded{prefix: out[:i], suffix: out[i+len(counterMark):]}
}

// body appends the re-encoding carrying counter n to dst.
func (r reencoded) body(dst []byte, n int) []byte {
	dst = append(dst, r.prefix...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, r.suffix...)
}

// reindent replaces each pair of leading spaces with a tab.
func reindent(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		t := strings.TrimLeft(l, " ")
		lines[i] = strings.Repeat("\t", (len(l)-len(t))/2) + t
	}
	return strings.Join(lines, "\n")
}

// warmServer serves every body once, so the raw index and the cache
// hold all of them, and returns its handler.
func warmServer(tb testing.TB, bodies [][]byte) http.Handler {
	tb.Helper()
	h := New(Config{Workers: 1, Queue: 2, CacheEntries: 4 * len(bodies)}).Handler()
	for i, b := range bodies {
		if rec := post(h, b); rec.Code != http.StatusOK {
			tb.Fatalf("warming body %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	return h
}

// BenchmarkWarmHit measures the two hit paths of /estimate through the
// handler over the 64 servable bodies the serving benchmark sends,
// with caching on: raw repeats a body verbatim (decode, raw key, raw
// index), canonical re-encodes it uniquely per request (decode, raw
// key, parse, validate, key, cache).
func BenchmarkWarmHit(b *testing.B) {
	bodies := servedBodies(b, 64)
	h := warmServer(b, bodies)
	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rec := post(h, bodies[i%len(bodies)]); rec.Header().Get("X-Segbus-Cache") != "hit" {
				b.Fatalf("raw repeat: status %d, cache %q", rec.Code, rec.Header().Get("X-Segbus-Cache"))
			}
		}
	})
	b.Run("canonical", func(b *testing.B) {
		templates := make([]reencoded, len(bodies))
		for i, body := range bodies {
			templates[i] = reencode(b, body)
		}
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = templates[i%len(templates)].body(buf[:0], i)
			if rec := post(h, buf); rec.Header().Get("X-Segbus-Cache") != "hit" {
				b.Fatalf("re-encoded body: status %d, cache %q", rec.Code, rec.Header().Get("X-Segbus-Cache"))
			}
		}
	})
}
