// segbus-load is the differential load harness for the estimation
// service: it generates a seeded corpus of servable models
// (internal/conform's generator stream, filtered to cases POST
// /estimate answers 200 for), drives the service with a configurable
// mix of warm and cold traffic — single requests or batches — and
// reports throughput, latency percentiles and cache behaviour.
//
// It is a load generator that doubles as an integration test driver:
// with -diff every served report is compared byte-for-byte against
// the CLI pipeline's canonical JSON for the same case, and with
// -prove-coalescing a burst of identical concurrent requests at a
// cold key must collapse to exactly one emulation. Any mismatch or a
// failed proof makes the run exit non-zero, so scripts/check.sh can
// gate on it.
//
// Usage:
//
//	segbus-load                       # in-process server, default mix
//	segbus-load -addr host:8080       # aim at a running segbus-served
//	segbus-load -seed 1 -models 12 -requests 300 -concurrency 8 \
//	            -hit-ratio 0.6 -batch 4 -diff -prove-coalescing -json
//	segbus-load -slowest 5               # server-side stage breakdown
//	                                     # of the 5 worst requests
//
// Without -addr the harness starts its own server on a real loopback
// listener (the full HTTP stack, not a stubbed handler) and counts
// actual emulations through an injected hook; against a remote server
// emulations are unknown (-1 in the report) and coalescing is proven
// from cache markers alone.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"segbus/internal/conform"
	"segbus/internal/dsl"
	"segbus/internal/obs/profflag"
	"segbus/internal/obs/reqtrace"
	"segbus/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "segbus-load:", err)
		os.Exit(1)
	}
}

// ReportSchema versions the JSON report layout.
const ReportSchema = "segbus/load-report/v2"

// Latency is the merged request-latency digest, in microseconds.
type Latency struct {
	P50Us   int64 `json:"p50_us"`
	P90Us   int64 `json:"p90_us"`
	P99Us   int64 `json:"p99_us"`
	MaxUs   int64 `json:"max_us"`
	Samples int64 `json:"samples,omitempty"`
}

// digest folds a sorted latency sample into the percentile summary.
func digest(sorted []int64) Latency {
	n := len(sorted)
	if n == 0 {
		return Latency{}
	}
	return Latency{
		P50Us:   sorted[boundIdx(n, 50)],
		P90Us:   sorted[boundIdx(n, 90)],
		P99Us:   sorted[boundIdx(n, 99)],
		MaxUs:   sorted[n-1],
		Samples: int64(n),
	}
}

// SlowStage is one stage of a slow request's server-side breakdown:
// a top-level span of the request trace.
type SlowStage struct {
	Name  string `json:"name"`
	DurUs int64  `json:"dur_us"`
}

// SlowRequest is one entry of the -slowest report: the server's own
// stage decomposition of a worst-latency request, read back from
// /debug/requests after the run.
type SlowRequest struct {
	TraceID  string      `json:"trace_id"`
	Endpoint string      `json:"endpoint"`
	Status   int         `json:"status"`
	DurUs    int64       `json:"dur_us"`
	Stages   []SlowStage `json:"stages"`
}

// Report is the machine-readable run summary (-json).
type Report struct {
	Schema      string           `json:"schema"`
	Target      string           `json:"target"`
	Seed        int64            `json:"seed"`
	Models      int              `json:"models"`
	Concurrency int              `json:"concurrency"`
	Batch       int              `json:"batch"`
	HitRatio    float64          `json:"hit_ratio"`
	Requests    int64            `json:"requests"` // HTTP requests issued
	Items       int64            `json:"items"`    // estimate items (batch items counted singly)
	Status      map[string]int64 `json:"status"`   // per-item HTTP status tally
	CacheHits   int64            `json:"cache_hits"`
	CacheMisses int64            `json:"cache_misses"`
	Coalesced   int64            `json:"coalesced"`
	// CacheShards is the server cache's per-shard hit/miss/eviction
	// tally (in-process runs only — a remote server's shards are not
	// observable from the client side).
	CacheShards []serve.CacheShardStats `json:"cache_shards,omitempty"`
	Emulations  int64                   `json:"emulations"` // in-process hook count; -1 against a remote server
	Checked     int64                   `json:"checked"`    // items compared against the CLI oracle
	Mismatches  int64                   `json:"mismatches"`
	ProofRan    bool                    `json:"coalescing_proof_ran"`
	Proven      bool                    `json:"coalescing_proven"`
	ElapsedMs   float64                 `json:"elapsed_ms"`
	ReqPerSec   float64                 `json:"requests_per_sec"`
	ItemsPerSec float64                 `json:"items_per_sec"`
	Latency     Latency                 `json:"latency"`
	// MarkerLatency splits single-request latency by the server's
	// X-Segbus-Cache marker (hit / miss / coalesced). Batch requests
	// mix markers within one round trip, so they are excluded.
	MarkerLatency map[string]Latency `json:"marker_latency,omitempty"`
	Slowest       []SlowRequest      `json:"slowest,omitempty"` // -slowest N server-side breakdowns
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("segbus-load", flag.ContinueOnError)
	addr := fs.String("addr", "", "target host:port of a running segbus-served (empty: start an in-process server)")
	seed := fs.Int64("seed", 1, "corpus seed: same seed, same models, same traffic")
	models := fs.Int("models", 16, "distinct servable models in the corpus")
	corpusDir := fs.String("corpus", "", "scenario directory to seed the generator's mutations with (optional)")
	concurrency := fs.Int("concurrency", 8, "concurrent client workers")
	requests := fs.Int64("requests", 400, "total HTTP requests to issue (ignored when -duration is set)")
	duration := fs.Duration("duration", 0, "run for this long instead of a fixed request count")
	hitRatio := fs.Float64("hit-ratio", 0.5, "fraction of requests aimed at the pre-warmed hot quarter of the corpus")
	batch := fs.Int("batch", 1, "items per request: 1 uses POST /estimate, >1 uses /estimate/batch")
	workers := fs.Int("workers", 0, "in-process server: concurrent emulations (0: one per CPU)")
	queue := fs.Int("queue", -1, "in-process server: admission queue depth (-1: twice the workers)")
	cacheEntries := fs.Int("cache", 1024, "in-process server: result-cache entries")
	cacheShards := fs.Int("cache-shards", 0, "in-process server: result-cache shards")
	timeout := fs.Duration("timeout", 30*time.Second, "client request timeout")
	diff := fs.Bool("diff", false, "compare every served report byte-for-byte against the CLI pipeline")
	slowest := fs.Int("slowest", 0, "after the run, print the server-side stage breakdown of the N slowest requests (forces tracing via seeded traceparent headers)")
	prove := fs.Bool("prove-coalescing", false, "after the run, prove a concurrent identical burst coalesces to one emulation")
	jsonOut := fs.Bool("json", false, "print the report as JSON instead of text")
	pf := profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if pf.PrintVersion(stdout) {
		return nil
	}
	if err := pf.Start(); err != nil {
		return err
	}
	defer pf.Stop(os.Stderr)

	if *models < 1 {
		return fmt.Errorf("-models must be at least 1")
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency must be at least 1")
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be at least 1")
	}
	if *hitRatio < 0 || *hitRatio > 1 {
		return fmt.Errorf("-hit-ratio must be in [0,1]")
	}

	// The corpus: -models traffic cases plus one reserved for the
	// coalescing proof (it must be cold when the proof runs).
	var corpus []*dsl.Document
	if *corpusDir != "" {
		var err error
		corpus, err = conform.LoadCorpusDir(*corpusDir)
		if err != nil {
			return err
		}
	}
	cases, err := conform.ServableCases(*seed, *models+1, corpus)
	if err != nil {
		return err
	}
	traffic, reserved := cases[:*models], cases[*models]

	// Pre-render request bodies and (for -diff) the canonical CLI
	// report bytes, so the measured loop does no model work.
	items := make([]serve.EstimateRequest, len(traffic))
	singles := make([][]byte, len(traffic))
	canonical := make([][]byte, len(traffic))
	for i, c := range traffic {
		psdfXML, psmXML, err := c.Schemes()
		if err != nil {
			return fmt.Errorf("case %d: %w", i, err)
		}
		items[i] = serve.EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)}
		if singles[i], err = json.Marshal(items[i]); err != nil {
			return err
		}
		if *diff {
			if canonical[i], err = c.ReportJSON(); err != nil {
				return fmt.Errorf("case %d: canonical run: %w", i, err)
			}
		}
	}

	// Target: a remote server, or the full in-process stack on a real
	// loopback listener with an emulation-counting hook.
	var emulations atomic.Int64
	var inSrv *serve.Server
	target := *addr
	inProcess := target == ""
	if inProcess {
		s := serve.New(serve.Config{
			Workers:      *workers,
			Queue:        *queue,
			CacheEntries: *cacheEntries,
			CacheShards:  *cacheShards,
			TraceSlowest: *slowest,
			OnEmulate:    func() { emulations.Add(1) },
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: s.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		target = ln.Addr().String()
		inSrv = s
	}
	base := target
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: *timeout}

	// Warm the hot quarter so -hit-ratio traffic actually hits.
	hot := len(traffic) / 4
	if hot < 1 {
		hot = 1
	}
	for i := 0; i < hot; i++ {
		resp, err := client.Post(base+"/estimate", "application/json", bytes.NewReader(singles[i]))
		if err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warmup case %d: status %d", i, resp.StatusCode)
		}
	}

	rep := &Report{
		Schema: ReportSchema, Target: base, Seed: *seed, Models: *models,
		Concurrency: *concurrency, Batch: *batch, HitRatio: *hitRatio,
		Status: make(map[string]int64), Emulations: -1,
	}
	baseEmu := emulations.Load()

	// The measured run: every worker owns a derived seed, so the
	// traffic mix is reproducible regardless of scheduling.
	var (
		issued    atomic.Int64 // requests claimed (stop condition)
		reqs      atomic.Int64
		itemCount atomic.Int64
		hits      atomic.Int64
		misses    atomic.Int64
		coalesced atomic.Int64
		checked   atomic.Int64
		mismatch  atomic.Int64
	)
	statusMu := sync.Mutex{}
	countStatus := func(code int, n int64) {
		statusMu.Lock()
		rep.Status[fmt.Sprint(code)] += n
		statusMu.Unlock()
	}
	countMarker := func(marker string) {
		switch marker {
		case "hit":
			hits.Add(1)
		case "miss":
			misses.Add(1)
		case "coalesced":
			coalesced.Add(1)
		}
	}
	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	latencies := make([][]int64, *concurrency)
	markerLat := make([]map[string][]int64, *concurrency)
	for w := range markerLat {
		markerLat[w] = make(map[string][]int64)
	}
	errs := make(chan error, *concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			pick := func() int {
				if rng.Float64() < *hitRatio {
					return rng.Intn(hot)
				}
				return rng.Intn(len(traffic))
			}
			for {
				if deadline.IsZero() {
					if issued.Add(1) > *requests {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}

				var body []byte
				var picked []int
				if *batch == 1 {
					picked = []int{pick()}
					body = singles[picked[0]]
				} else {
					br := serve.BatchRequest{Items: make([]serve.EstimateRequest, *batch)}
					picked = make([]int, *batch)
					for j := range br.Items {
						picked[j] = pick()
						br.Items[j] = items[picked[j]]
					}
					var err error
					if body, err = json.Marshal(br); err != nil {
						errs <- err
						return
					}
				}
				path := "/estimate"
				if *batch > 1 {
					path = "/estimate/batch"
				}
				t0 := time.Now()
				req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set("Content-Type", "application/json")
				if *slowest > 0 {
					// Force server-side tracing so /debug/requests can
					// attribute the slowest requests after the run; the
					// ids are seeded, so a run is reproducible.
					req.Header.Set("traceparent", forcedTraceparent(rng))
				}
				resp, err := client.Do(req)
				if err != nil {
					errs <- err
					return
				}
				payload, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				lat := time.Since(t0).Microseconds()
				latencies[w] = append(latencies[w], lat)
				reqs.Add(1)
				itemCount.Add(int64(len(picked)))

				if *batch == 1 {
					countStatus(resp.StatusCode, 1)
					if resp.StatusCode == http.StatusOK {
						marker := resp.Header.Get("X-Segbus-Cache")
						countMarker(marker)
						if marker != "" {
							markerLat[w][marker] = append(markerLat[w][marker], lat)
						}
						if *diff {
							checked.Add(1)
							if !bytes.Equal(payload, canonical[picked[0]]) {
								mismatch.Add(1)
							}
						}
					}
					continue
				}
				if resp.StatusCode != http.StatusOK {
					countStatus(resp.StatusCode, int64(len(picked)))
					continue
				}
				var br serve.BatchResponse
				if err := json.Unmarshal(payload, &br); err != nil {
					errs <- fmt.Errorf("batch response: %w", err)
					return
				}
				if len(br.Items) != len(picked) {
					errs <- fmt.Errorf("batch returned %d items for %d sent", len(br.Items), len(picked))
					return
				}
				for j, it := range br.Items {
					countStatus(it.Status, 1)
					if it.Status != http.StatusOK {
						continue
					}
					countMarker(it.Cache)
					if *diff {
						checked.Add(1)
						if !bytes.Equal([]byte(it.Report), canonical[picked[j]]) {
							mismatch.Add(1)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return err
	default:
	}

	rep.Requests = reqs.Load()
	rep.Items = itemCount.Load()
	rep.CacheHits = hits.Load()
	rep.CacheMisses = misses.Load()
	rep.Coalesced = coalesced.Load()
	rep.Checked = checked.Load()
	rep.Mismatches = mismatch.Load()
	rep.ElapsedMs = float64(elapsed.Nanoseconds()) / 1e6
	if elapsed > 0 {
		rep.ReqPerSec = float64(rep.Requests) / elapsed.Seconds()
		rep.ItemsPerSec = float64(rep.Items) / elapsed.Seconds()
	}
	if inProcess {
		rep.Emulations = emulations.Load() - baseEmu
		rep.CacheShards = inSrv.Cache().ShardStats()
	}
	var all []int64
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.Latency = digest(all)
	merged := make(map[string][]int64)
	for _, ml := range markerLat {
		for marker, l := range ml {
			merged[marker] = append(merged[marker], l...)
		}
	}
	if len(merged) > 0 {
		rep.MarkerLatency = make(map[string]Latency, len(merged))
		for marker, l := range merged {
			sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
			rep.MarkerLatency[marker] = digest(l)
		}
	}

	// The coalescing proof: a synchronized burst of identical requests
	// at the reserved (still cold) model must produce exactly one
	// cache miss — every other response was coalesced onto that
	// flight or served from the cache it filled. In process, the
	// emulation hook must agree.
	if *prove {
		rep.ProofRan = true
		proven, err := proveCoalescing(client, base, reserved, *concurrency, &emulations, inProcess)
		if err != nil {
			return err
		}
		rep.Proven = proven
	}

	// The slowest-request breakdowns come from the server's own flight
	// recorder, not from client-side timing: the client can only see
	// total latency, the server knows which stage ate it.
	if *slowest > 0 {
		slow, err := fetchSlowest(client, base, *slowest)
		if err != nil {
			return fmt.Errorf("-slowest: %w", err)
		}
		rep.Slowest = slow
	}

	if *jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
	} else {
		printText(stdout, rep)
	}

	// Gate conditions for CI use.
	if rep.Mismatches > 0 {
		return fmt.Errorf("%d/%d served reports differ from the CLI pipeline", rep.Mismatches, rep.Checked)
	}
	if *prove && !rep.Proven {
		return fmt.Errorf("coalescing not proven: concurrent identical burst cost more than one emulation")
	}
	if inProcess && *hitRatio > 0 && rep.Status["200"] >= 20 && rep.Emulations >= rep.Status["200"] {
		return fmt.Errorf("no caching benefit: %d emulations for %d served items on a warm corpus", rep.Emulations, rep.Status["200"])
	}
	return nil
}

// forcedTraceparent renders a W3C traceparent with the sampled flag
// from the worker's seeded rng, so the server is forced to trace the
// request under a reproducible id.
func forcedTraceparent(rng *rand.Rand) string {
	hi, lo := rng.Uint64(), rng.Uint64()
	if hi|lo == 0 {
		lo = 1 // the all-zero trace id is invalid per W3C
	}
	return fmt.Sprintf("00-%016x%016x-%016x-01", hi, lo, rng.Uint64())
}

// fetchSlowest reads the server's flight recorder and flattens its
// slowest-trace list into the report shape: one row per request, with
// the top-level stage spans as the breakdown.
func fetchSlowest(client *http.Client, base string, n int) ([]SlowRequest, error) {
	resp, err := client.Get(base + "/debug/requests?n=1")
	if err != nil {
		return nil, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/requests: status %d (is tracing enabled on the server?)", resp.StatusCode)
	}
	var doc reqtrace.Document
	if err := json.Unmarshal(payload, &doc); err != nil {
		return nil, fmt.Errorf("/debug/requests: %w", err)
	}
	if doc.Schema != reqtrace.DocumentSchema {
		return nil, fmt.Errorf("/debug/requests: schema %q, want %q", doc.Schema, reqtrace.DocumentSchema)
	}
	if len(doc.Slowest) > n {
		doc.Slowest = doc.Slowest[:n]
	}
	out := make([]SlowRequest, 0, len(doc.Slowest))
	for _, s := range doc.Slowest {
		sr := SlowRequest{
			TraceID:  s.TraceID,
			Endpoint: s.Endpoint,
			Status:   s.Status,
			DurUs:    s.DurNs / 1000,
		}
		for _, sp := range s.Spans {
			if sp.Parent != 0 {
				continue // stages are the root's direct children
			}
			sr.Stages = append(sr.Stages, SlowStage{Name: sp.Name, DurUs: sp.DurNs / 1000})
		}
		out = append(out, sr)
	}
	return out, nil
}

// boundIdx maps a percentile to a valid index of a sorted slice.
func boundIdx(n, pct int) int {
	i := n * pct / 100
	if i >= n {
		i = n - 1
	}
	return i
}

// proveCoalescing fires k simultaneous identical requests at a cold
// key and checks they collapse: exactly one miss marker (in process,
// also exactly one emulation). The burst is barrier-released so the
// requests genuinely overlap.
func proveCoalescing(client *http.Client, base string, c *conform.Case, k int, emulations *atomic.Int64, inProcess bool) (bool, error) {
	if k < 2 {
		k = 2
	}
	psdfXML, psmXML, err := c.Schemes()
	if err != nil {
		return false, err
	}
	body, err := json.Marshal(serve.EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)})
	if err != nil {
		return false, err
	}
	before := emulations.Load()
	release := make(chan struct{})
	markers := make(chan string, k)
	errc := make(chan error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			resp, err := client.Post(base+"/estimate", "application/json", bytes.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("proof request: status %d", resp.StatusCode)
				return
			}
			markers <- resp.Header.Get("X-Segbus-Cache")
		}()
	}
	close(release)
	wg.Wait()
	select {
	case err := <-errc:
		return false, err
	default:
	}
	close(markers)
	missCount := 0
	for m := range markers {
		if m == "miss" {
			missCount++
		}
	}
	if missCount != 1 {
		return false, nil
	}
	if inProcess && emulations.Load()-before != 1 {
		return false, nil
	}
	return true, nil
}

// printText renders the human report (the README sample).
func printText(w io.Writer, r *Report) {
	fmt.Fprintf(w, "segbus-load: %d requests (%d items) in %.1fms against %s\n",
		r.Requests, r.Items, r.ElapsedMs, r.Target)
	fmt.Fprintf(w, "  corpus:     %d models, seed %d, hit-ratio %.2f, batch %d, %d workers\n",
		r.Models, r.Seed, r.HitRatio, r.Batch, r.Concurrency)
	fmt.Fprintf(w, "  throughput: %.1f req/s, %.1f items/s\n", r.ReqPerSec, r.ItemsPerSec)
	keys := make([]string, 0, len(r.Status))
	for k := range r.Status {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "  status:    ")
	for _, k := range keys {
		fmt.Fprintf(w, " %d×%s", r.Status[k], k)
	}
	fmt.Fprintln(w)
	emu := "n/a (remote)"
	if r.Emulations >= 0 {
		emu = fmt.Sprint(r.Emulations)
	}
	fmt.Fprintf(w, "  cache:      %d hits, %d misses, %d coalesced (emulations: %s)\n",
		r.CacheHits, r.CacheMisses, r.Coalesced, emu)
	if len(r.CacheShards) > 0 {
		fmt.Fprintf(w, "  shards:    ")
		for _, st := range r.CacheShards {
			fmt.Fprintf(w, " [%d: %de %dh/%dm/%dv]", st.Shard, st.Entries, st.Hits, st.Misses, st.Evictions)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  latency:    p50 %s  p90 %s  p99 %s  max %s\n",
		us(r.Latency.P50Us), us(r.Latency.P90Us), us(r.Latency.P99Us), us(r.Latency.MaxUs))
	for _, marker := range []string{"hit", "miss", "coalesced"} {
		l, ok := r.MarkerLatency[marker]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "    %-9s p50 %s  p90 %s  p99 %s  max %s  (%d samples)\n",
			marker+":", us(l.P50Us), us(l.P90Us), us(l.P99Us), us(l.MaxUs), l.Samples)
	}
	if r.Checked > 0 || r.Mismatches > 0 {
		fmt.Fprintf(w, "  differential: %d/%d byte-identical to the CLI pipeline\n",
			r.Checked-r.Mismatches, r.Checked)
	}
	if r.ProofRan {
		verdict := "FAILED"
		if r.Proven {
			verdict = "proven (one emulation for the concurrent identical burst)"
		}
		fmt.Fprintf(w, "  coalescing: %s\n", verdict)
	}
	if len(r.Slowest) > 0 {
		fmt.Fprintf(w, "  slowest %d (server-side breakdown):\n", len(r.Slowest))
		for i, s := range r.Slowest {
			fmt.Fprintf(w, "    %d. %s %d %s  trace %.8s", i+1, us(s.DurUs), s.Status, s.Endpoint, s.TraceID)
			sep := "  ["
			for _, st := range s.Stages {
				fmt.Fprintf(w, "%s%s %s", sep, st.Name, us(st.DurUs))
				sep = " | "
			}
			if sep == " | " {
				fmt.Fprint(w, "]")
			}
			fmt.Fprintln(w)
		}
	}
}

// us renders a microsecond latency human-readably.
func us(v int64) string {
	switch {
	case v >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.1fms", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dµs", v)
	}
}
