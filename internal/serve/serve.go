// Package serve turns the one-shot estimation pipeline into a
// long-lived concurrent HTTP service: POST the PSDF and PSM XML
// schemes (the same documents segbus-emu reads) to /estimate — or a
// list of them to /estimate/batch — and get back the versioned report
// JSON, byte-identical to `segbus-emu -report-json` on the same
// schemes.
//
// A request body is read once and decoded by DecodeEstimate, a
// single-pass reader for the envelope clients send that hands every
// other body to encoding/json, so the accepted language and every
// error text stay encoding/json's (see decode.go).
//
// The service introduces the repository's first shared mutable state,
// managed by four mechanisms:
//
//   - a sharded content-addressed LRU result cache (Cache) keyed by
//     core.Key, a hash of the parsed model + platform's canonical
//     binary encoding (equal exactly when the two pairs render to the
//     same m2t schemes) and the report-affecting options, so
//     repeated design-space probes are served without re-simulation
//     and concurrent probes for different keys rarely share a lock —
//     fronted by a raw-request index that recognises a verbatim
//     repeat of an already-served request before any parsing work,
//     and backed by a machine pool that reuses warm emulator arenas
//     across cold runs (see pool.go and rawkey.go);
//   - single-flight coalescing (flightGroup): K identical in-flight
//     requests — batch items included — trigger exactly one
//     emulation, with every waiter sharing the leader's
//     pre-serialized response bytes;
//   - a bounded worker pool (internal/parallel.Pool) with per-request
//     deadlines, queue-full backpressure (HTTP 429) and caller
//     cancellation — an abandoned request frees its admission slot;
//   - a graceful drain: Drain flips /healthz to 503, sheds new
//     estimates with SB905, and waits for in-flight emulations.
//
// Every non-200 response is a JSON ErrorResponse carrying a stable
// service code (SB9xx) and, for schema or preflight rejections, the
// SB0xx diagnostics of the static analyzers; batch requests carry the
// same codes per item without failing the envelope. Request, latency,
// cache, coalescing and saturation metrics flow into an obs.Registry
// exposed on /metrics in Prometheus text exposition.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"segbus/internal/analyze"
	"segbus/internal/core"
	"segbus/internal/emulator"
	"segbus/internal/emulator/pool"
	"segbus/internal/obs"
	"segbus/internal/obs/reqtrace"
	"segbus/internal/parallel"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
	"segbus/internal/schema"
)

// Service diagnostic codes, in the SB9xx range so they can never
// collide with the analyzer codes (SB0xx–SB3xx) they may carry.
const (
	// CodeBadRequest marks a malformed request envelope: invalid
	// JSON, an unsupported method, an oversized body or an unknown
	// or out-of-range option value.
	CodeBadRequest = "SB900"

	// CodeBadScheme marks a PSDF or PSM scheme that failed parsing or
	// validation; Diagnostics carries the SB0xx findings when the
	// scheme was well-formed XML describing a broken model.
	CodeBadScheme = "SB901"

	// CodeBadModel marks a model pair rejected by the static
	// preflight analysis; Diagnostics carries the SB0xx findings.
	CodeBadModel = "SB902"

	// CodeQueueFull marks a request shed because the worker pool had
	// no admission capacity (HTTP 429).
	CodeQueueFull = "SB903"

	// CodeDeadline marks a request that hit its deadline or was
	// abandoned before a result was produced (HTTP 504).
	CodeDeadline = "SB904"

	// CodeDraining marks a request refused because the server is
	// shutting down (HTTP 503).
	CodeDraining = "SB905"

	// CodeInternal marks an emulation failure on a model pair that
	// passed validation and preflight (HTTP 500).
	CodeInternal = "SB906"
)

// EstimateRequest is the /estimate request body.
type EstimateRequest struct {
	// PSDF and PSM are the XML schemes, verbatim.
	PSDF string `json:"psdf"`
	PSM  string `json:"psm"`

	// PackageSize, when positive, overrides the scheme's package size
	// (the -s flag of segbus-emu).
	PackageSize int `json:"package_size,omitempty"`

	// Policy selects the arbitration policy: "" or "bu-first",
	// "fifo", "fixed-priority".
	Policy string `json:"policy,omitempty"`

	// DetectTicks overrides the monitor's end-detection latency.
	// Here and in Overheads, tick counts emulator.ValidateConfig
	// refuses (negative or above emulator.MaxTicks) are answered with
	// SB900 before any emulation work.
	DetectTicks int64 `json:"detect_ticks,omitempty"`

	// Overheads selects a non-default timing model.
	Overheads *OverheadsSpec `json:"overheads,omitempty"`
}

// OverheadsSpec mirrors emulator.Overheads in the request JSON.
type OverheadsSpec struct {
	GrantTicks   int `json:"grant_ticks,omitempty"`
	SyncTicks    int `json:"sync_ticks,omitempty"`
	CASetTicks   int `json:"ca_set_ticks,omitempty"`
	CAResetTicks int `json:"ca_reset_ticks,omitempty"`
}

// ErrorResponse is the body of every non-200 response.
type ErrorResponse struct {
	Code        string               `json:"code"`
	Error       string               `json:"error"`
	Diagnostics []analyze.Diagnostic `json:"diagnostics,omitempty"`
}

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrent emulations; <= 0 selects GOMAXPROCS.
	Workers int

	// Queue bounds requests admitted beyond the running ones before
	// 429s start; < 0 selects twice the worker count.
	Queue int

	// CacheEntries bounds the result cache; <= 0 disables caching.
	CacheEntries int

	// CacheShards selects the result cache's shard count (rounded up
	// to a power of two, capped at 256); 0 selects 8, 1 gives a
	// single exact global LRU.
	CacheShards int

	// MaxBatchItems bounds the items of one /estimate/batch request;
	// <= 0 selects 64.
	MaxBatchItems int

	// RequestTimeout is the per-request deadline (queue wait
	// included); 0 means no server-imposed deadline. A batch request
	// gets one deadline for the whole batch.
	RequestTimeout time.Duration

	// MaxBodyBytes bounds the request body; <= 0 selects 16 MiB.
	MaxBodyBytes int64

	// Registry receives the server metric catalogue; nil disables
	// metrics (the /metrics endpoint then serves an empty
	// exposition).
	Registry *obs.Registry

	// TraceSample head-samples one in N estimate requests for
	// request-scoped tracing (internal/obs/reqtrace): 0 — the default —
	// samples nothing by itself but still honours requests whose W3C
	// traceparent header carries the sampled flag; < 0 disables
	// tracing entirely (no tracer, no recorder, no /debug/requests
	// content).
	TraceSample int

	// TraceSeed seeds the deterministic trace-id generator; 0 selects
	// 1. Same seed + same request order = same ids.
	TraceSeed uint64

	// TraceRing bounds the flight recorder's ring of recent sampled
	// traces; 0 selects 256.
	TraceRing int

	// TraceSlowest bounds the flight recorder's slowest-trace list;
	// 0 selects 8.
	TraceSlowest int

	// OnEmulate, when non-nil, is called once per emulation actually
	// executed — after pool admission, immediately before the run.
	// The coalescing tests and the segbus-load harness use it to
	// count emulations exactly.
	OnEmulate func()
}

// Server is the estimation service. Create with New, expose with
// Handler, stop with Drain.
type Server struct {
	cfg      Config
	cache    *Cache
	rawIndex *Cache     // raw-request byte index; nil when caching is disabled
	machines *pool.Pool // warm emulator machines for the leader path
	flights  *flightGroup
	pool     *parallel.Pool
	metrics  *obs.ServerMetrics
	tracer   *reqtrace.Tracer   // nil when TraceSample < 0
	recorder *reqtrace.Recorder // nil when TraceSample < 0
	draining atomic.Bool
}

// New returns a ready Server.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 64
	}
	metrics := obs.NewServerMetrics(cfg.Registry)
	s := &Server{
		cfg:      cfg,
		cache:    NewShardedCache(cfg.CacheEntries, cfg.CacheShards, cfg.Registry),
		machines: newMachinePool(metrics),
		flights:  newFlightGroup(),
		pool:     parallel.NewPool(cfg.Workers, cfg.Queue),
		metrics:  metrics,
	}
	if cfg.CacheEntries > 0 {
		// The raw index shares the result cache's sizing but not its
		// shard-labelled counters — its hits surface as RawHits.
		s.rawIndex = NewShardedCache(cfg.CacheEntries, cfg.CacheShards, nil)
	}
	if cfg.TraceSample >= 0 {
		s.tracer = reqtrace.New(cfg.TraceSample, cfg.TraceSeed)
		s.recorder = reqtrace.NewRecorder(cfg.TraceRing, cfg.TraceSlowest)
	}
	return s
}

// Cache returns the server's result cache (for tests and stats).
func (s *Server) Cache() *Cache { return s.cache }

// Recorder returns the server's trace flight recorder (nil when
// tracing is disabled) — the backing store of /debug/requests,
// exposed for tests and the load harness.
func (s *Server) Recorder() *reqtrace.Recorder { return s.recorder }

// Tracer returns the server's request tracer (nil when tracing is
// disabled); tests use it to pin the clock.
func (s *Server) Tracer() *reqtrace.Tracer { return s.tracer }

// Handler returns the service mux: POST /estimate, POST
// /estimate/batch, GET /healthz, GET /metrics, GET /debug/requests.
// Every endpoint is instrumented with the obs server catalogue; the
// two estimate endpoints additionally participate in request tracing.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/estimate", s.instrument("/estimate", true, http.HandlerFunc(s.handleEstimate)))
	mux.Handle("/estimate/batch", s.instrument("/estimate/batch", true, http.HandlerFunc(s.handleBatch)))
	mux.Handle("/healthz", s.instrument("/healthz", false, http.HandlerFunc(s.handleHealthz)))
	mux.Handle("/metrics", s.instrument("/metrics", false, obs.Handler(s.cfg.Registry)))
	mux.Handle("/debug/requests", s.instrument("/debug/requests", false, http.HandlerFunc(s.handleDebugRequests)))
	return mux
}

// Drain starts the graceful shutdown: /healthz turns 503, new
// estimates are refused with SB905, and the call blocks until
// in-flight emulations finish or ctx expires, reporting whether the
// drain completed. Idempotent.
func (s *Server) Drain(ctx context.Context) bool {
	s.draining.Store(true)
	s.metrics.Draining.Set(1)
	s.pool.Close()
	return s.pool.Drain(ctx)
}

// statusWriter captures the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps an endpoint with the in-flight gauge, the request
// counter and the latency histogram. On traced endpoints it also runs
// the trace lifecycle: sample the request (head-based, or forced by a
// W3C traceparent header with the sampled flag), announce the trace id
// up front in the X-Segbus-Trace and Traceparent response headers —
// before the handler writes — and, once the handler returns, snapshot
// the spans into the flight recorder, pin the trace id to the latency
// histogram bucket as an exemplar, and return the trace to its pool.
// An unsampled request pays one nil check and nothing else.
func (s *Server) instrument(endpoint string, traced bool, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var tr *reqtrace.Trace
		if traced {
			if tr = s.tracer.Start(r.Header.Get("traceparent")); tr != nil {
				w.Header().Set("X-Segbus-Trace", tr.ID())
				w.Header().Set("Traceparent", tr.Traceparent())
				r = r.WithContext(reqtrace.NewContext(r.Context(), tr))
			}
		}
		s.metrics.InFlight.Set(float64(s.pool.InFlight() + 1))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.metrics.InFlight.Set(float64(s.pool.InFlight()))
		status := strconv.Itoa(sw.status)
		lat := time.Since(start).Microseconds()
		if tr == nil {
			s.metrics.Request(endpoint, status, lat)
			return
		}
		snap := tr.Finish(endpoint, sw.status)
		s.recorder.Record(snap)
		s.tracer.Release(tr)
		s.metrics.RequestTraced(endpoint, status, lat, snap.TraceID)
	})
}

// handleDebugRequests serves the trace flight recorder. With no
// parameters it returns the segbus/reqtrace/v1 document: the last 16
// sampled traces (override with ?n=K) plus the current slowest list.
// ?trace=<id> returns that one snapshot — add &format=perfetto for the
// Chrome trace-event rendering of the same request, ready for
// ui.perfetto.dev.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		fail(w, http.StatusMethodNotAllowed, CodeBadRequest, "GET required", nil)
		return
	}
	if s.recorder == nil {
		fail(w, http.StatusNotFound, CodeBadRequest, "request tracing is disabled on this server", nil)
		return
	}
	q := r.URL.Query()
	if id := q.Get("trace"); id != "" {
		snap := s.recorder.Find(id)
		if snap == nil {
			fail(w, http.StatusNotFound, CodeBadRequest, "trace "+id+" is not in the flight recorder", nil)
			return
		}
		var body []byte
		var err error
		if q.Get("format") == "perfetto" {
			body, err = reqtrace.ToTrace(snap).Perfetto()
		} else {
			if body, err = json.MarshalIndent(snap, "", "  "); err == nil {
				body = append(body, '\n')
			}
		}
		if err != nil {
			fail(w, http.StatusInternalServerError, CodeInternal, "trace encoding: "+err.Error(), nil)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	n := 16
	if v := q.Get("n"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 0 {
			fail(w, http.StatusBadRequest, CodeBadRequest, "n must be a non-negative integer", nil)
			return
		}
		n = k
	}
	body, err := s.recorder.Document(n).MarshalIndent()
	if err != nil {
		fail(w, http.StatusInternalServerError, CodeInternal, "document encoding: "+err.Error(), nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// fail writes an ErrorResponse.
func fail(w http.ResponseWriter, status int, code, msg string, ds []analyze.Diagnostic) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, err := json.Marshal(ErrorResponse{Code: code, Error: msg, Diagnostics: ds})
	if err != nil {
		// Diagnostics are plain data; this cannot happen. Keep the
		// contract anyway: non-200 bodies are always well-formed JSON.
		body = []byte(`{"code":"` + CodeInternal + `","error":"error encoding failure"}`)
	}
	w.Write(body)
}

// parsePolicy maps the request's policy name.
func parsePolicy(name string) (emulator.Policy, error) {
	switch name {
	case "", "bu-first":
		return emulator.PolicyBUFirst, nil
	case "fifo":
		return emulator.PolicyFIFO, nil
	case "fixed-priority":
		return emulator.PolicyFixedPriority, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want bu-first, fifo or fixed-priority)", name)
}

// outcome is the transport-independent result of one estimate: what
// the single endpoint writes as an HTTP response and the batch
// endpoint embeds as one item. The zero value (status 0) is the
// "no error" sentinel of parseRequest.
type outcome struct {
	status int    // HTTP status; 200 means body carries the report
	cache  string // "hit" | "miss" | "coalesced" on 200
	body   []byte // report JSON on 200
	code   string // SB9xx on non-200
	msg    string
	diags  []analyze.Diagnostic
}

// errOutcome builds a non-200 outcome.
func errOutcome(status int, code, msg string, ds []analyze.Diagnostic) outcome {
	return outcome{status: status, code: code, msg: msg, diags: ds}
}

// parsed is one decoded estimate: the model pair, its estimation
// options and the content key, ready for the cache → single-flight →
// pool pipeline.
type parsed struct {
	m    *psdf.Model
	plat *platform.Platform
	opts core.Options
	cfg  emulator.Config // opts as the emulator reads them
	key  string
	pair *sched.Pair // preflight's admission, emulated on a miss
}

// parseRequest decodes one estimate request into its parsed form:
// scheme parsing, option resolution and key derivation, on the request
// goroutine. A non-zero outcome status reports the rejection. The work
// lands in two spans under parent: "parse" (schemes and options; a
// rejection terminates it with the SB9xx code attached) and
// "fingerprint" (see fingerprint). The preflight gate runs later, in
// estimate, and only on a cache miss.
func (s *Server) parseRequest(tr *reqtrace.Trace, parent reqtrace.SpanID, req *EstimateRequest) (*parsed, outcome) {
	sp := tr.Child(parent, "parse")
	pr, out := decodeRequest(req)
	if out.status != 0 {
		tr.Attr(sp, "code", out.code)
		tr.End(sp)
		return nil, out
	}
	tr.End(sp)
	if out := fingerprint(tr, parent, pr); out.status != 0 {
		return nil, out
	}
	return pr, outcome{}
}

// fingerprint derives pr.key in a "fingerprint" span. A pair the key
// refuses never reaches the cache probe, so it is gated here instead:
// preflight's rejection answers first, and only a pair that passes
// gets the 500 SB906 (with the code attached to the span).
func fingerprint(tr *reqtrace.Trace, parent reqtrace.SpanID, pr *parsed) outcome {
	sp := tr.Child(parent, "fingerprint")
	key, err := core.Key(pr.m, pr.plat, pr.opts)
	tr.End(sp)
	if err != nil {
		if out := preflight(tr, parent, pr); out.status != 0 {
			return out
		}
		tr.Attr(sp, "code", CodeInternal)
		return errOutcome(http.StatusInternalServerError, CodeInternal, "canonicalize: "+err.Error(), nil)
	}
	pr.key = key
	return outcome{}
}

// decodeRequest is parseRequest's untraced core: schemes and options,
// everything except key derivation.
func decodeRequest(req *EstimateRequest) (*parsed, outcome) {
	if req.PSDF == "" || req.PSM == "" {
		return nil, errOutcome(http.StatusBadRequest, CodeBadRequest, "psdf and psm schemes are required", nil)
	}
	m, err := schema.ParsePSDFString(req.PSDF)
	if err != nil {
		ds, _ := analyze.FromError(err)
		return nil, errOutcome(http.StatusBadRequest, CodeBadScheme, "psdf: "+err.Error(), ds)
	}
	plat, err := schema.ParsePSMString(req.PSM)
	if err != nil {
		ds, _ := analyze.FromError(err)
		return nil, errOutcome(http.StatusBadRequest, CodeBadScheme, "psm: "+err.Error(), ds)
	}
	if req.PackageSize > 0 {
		plat.PackageSize = req.PackageSize
	}
	policy, err := parsePolicy(req.Policy)
	if err != nil {
		return nil, errOutcome(http.StatusBadRequest, CodeBadRequest, err.Error(), nil)
	}
	opts := core.Options{Policy: policy, DetectTicks: req.DetectTicks}
	if req.Overheads != nil {
		opts.Overheads = emulator.Overheads{
			GrantTicks:   req.Overheads.GrantTicks,
			SyncTicks:    req.Overheads.SyncTicks,
			CASetTicks:   req.Overheads.CASetTicks,
			CAResetTicks: req.Overheads.CAResetTicks,
		}
	}
	cfg := emulator.Config{Overheads: opts.Overheads, DetectTicks: opts.DetectTicks, Policy: policy}
	if err := emulator.ValidateConfig(cfg); err != nil {
		return nil, errOutcome(http.StatusBadRequest, CodeBadRequest, err.Error(), nil)
	}
	return &parsed{m: m, plat: plat, opts: opts, cfg: cfg}, outcome{}
}

// preflight is the static gate between a cache miss and the flight
// join: the structural and liveness analyzers must pass before a pair
// may take a flight or a worker slot. A rejection answers 400 SB902
// with the analyzers' diagnostics. The work lands in a "preflight"
// span under parent; a rejection terminates it with the code attached.
//
// Running the gate after the cache probe is sound because the cache
// only ever holds pairs that passed it (Cache.Put is called only after
// an emulation, and the raw index only stores 200s), and because two
// pairs with the same core.Key get the same preflight verdict: the
// key covers every value the m2t schemes render, and the verdict on a
// parsed pair equals the verdict on its re-parsed rendering.
func preflight(tr *reqtrace.Trace, parent reqtrace.SpanID, pr *parsed) outcome {
	sp := tr.Child(parent, "preflight")
	defer tr.End(sp)
	pre := core.Preflight(pr.m, pr.plat)
	if !pre.HasErrors() {
		pr.pair = pre.Pair
		return outcome{}
	}
	tr.Attr(sp, "code", CodeBadModel)
	e, warns, _ := pre.Counts()
	return errOutcome(http.StatusBadRequest, CodeBadModel,
		fmt.Sprintf("preflight found %d error(s), %d warning(s)", e, warns),
		pre.Diagnostics)
}

// estimate serves one parsed request through the shared pipeline:
// cache probe → preflight on a miss → single-flight join → pooled
// emulation → cache fill. A hit skips preflight; a rejected pair
// never joins a flight or takes a worker slot. Identical concurrent
// requests — across /estimate, /estimate/batch and any mix of the two
// — resolve to one emulation: the first becomes the flight's leader,
// the rest wait and share its pre-serialized bytes.
//
// Tracing: "cache_probe" records the probed shard and its result; a
// miss opens "preflight"; a flight join opens "flight" with a role
// attribute — a waiter's span covers the whole wait on the leader, a
// leader's closes immediately (its real work shows up as
// pool_wait/emulate spans instead).
func (s *Server) estimate(ctx context.Context, tr *reqtrace.Trace, parent reqtrace.SpanID, pr *parsed) outcome {
	sp := tr.Child(parent, "cache_probe")
	if tr != nil {
		tr.AttrInt(sp, "shard", int64(s.cache.ShardFor(pr.key)))
	}
	if body, ok := s.cache.Get(pr.key); ok {
		tr.Attr(sp, "result", "hit")
		tr.End(sp)
		s.metrics.CacheHits.Inc()
		return outcome{status: http.StatusOK, cache: "hit", body: body}
	}
	tr.Attr(sp, "result", "miss")
	tr.End(sp)
	if out := preflight(tr, parent, pr); out.status != 0 {
		return out
	}

	fl := tr.Child(parent, "flight")
	f, leader := s.flights.join(pr.key)
	if !leader {
		tr.Attr(fl, "role", "waiter")
		defer tr.End(fl)
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-f.done:
		case <-done:
			// The waiter's own deadline wins over the shared flight;
			// the leader keeps running for everyone else.
			s.metrics.Deadline.Inc()
			return errOutcome(http.StatusGatewayTimeout, CodeDeadline,
				"request abandoned while waiting on a coalesced emulation: "+context.Cause(ctx).Error(), nil)
		}
		out := f.out
		if out.status == http.StatusOK {
			out.cache = "coalesced"
			s.metrics.Coalesced.Inc()
		}
		return out
	}
	tr.Attr(fl, "role", "leader")
	tr.End(fl)

	// Leader. Publish on every exit path — an unfinished flight would
	// hang its waiters until their own deadlines (or forever without
	// one), so even a panic in the emulation must complete it.
	out := errOutcome(http.StatusInternalServerError, CodeInternal, "emulation aborted", nil)
	defer func() { s.flights.publish(pr.key, f, out) }()

	// Re-probe the cache after winning leadership: this request may
	// have missed just before a previous leader filled the entry, and
	// re-running the emulation then would break the "K identical
	// requests, one emulation" guarantee.
	if body, ok := s.cache.Get(pr.key); ok {
		s.metrics.CacheHits.Inc()
		out = outcome{status: http.StatusOK, cache: "hit", body: body}
		return out
	}
	out = s.emulate(ctx, tr, parent, pr)
	return out
}

// emulate runs the leader's pooled emulation and classifies every
// admission and run failure into its service code. A traced request
// gets a "pool_wait" span for the admission wait (reported by the
// pool's observer hook, so it covers exactly the invisible queue time),
// a "pool_checkout" span recording whether the machine pool served a
// warm machine, and an "emulate" span around the run; the observer
// closure is only built when the request is sampled, so the untraced
// path calls plain Submit semantics with a nil hook.
//
// The pair preflight admitted runs on a pooled machine through
// pool.Pool.Run — byte-identical to a fresh run, minus the
// construction cost; a panicking run drops its machine and answers 500
// SB906 like any other emulation failure.
func (s *Server) emulate(ctx context.Context, tr *reqtrace.Trace, parent reqtrace.SpanID, pr *parsed) outcome {
	var body []byte
	var runErr error
	var observe func(time.Duration)
	if tr != nil {
		observe = func(wait time.Duration) { tr.SpanPast(parent, "pool_wait", wait) }
	}
	err := s.pool.SubmitObserved(ctx, observe, func() {
		sp := tr.Child(parent, "pool_checkout")
		var rep *emulator.Report
		rep, runErr = s.machines.Run(pr.pair, pr.cfg, func(warm bool) {
			result := "miss"
			if warm {
				result = "hit"
			}
			tr.Attr(sp, "result", result)
			tr.End(sp)
			sp = tr.Child(parent, "emulate")
			if s.cfg.OnEmulate != nil {
				s.cfg.OnEmulate()
			}
		})
		if runErr == nil {
			body, runErr = rep.JSON()
		}
		tr.End(sp)
	})
	switch {
	case errors.Is(err, parallel.ErrQueueFull):
		s.metrics.QueueFull.Inc()
		return errOutcome(http.StatusTooManyRequests, CodeQueueFull, "worker pool saturated, retry later", nil)
	case errors.Is(err, parallel.ErrPoolClosed):
		return errOutcome(http.StatusServiceUnavailable, CodeDraining, "server is draining", nil)
	case err != nil:
		// Deadline hit or caller gone while queued; either way no
		// worker slot was burnt.
		s.metrics.Deadline.Inc()
		return errOutcome(http.StatusGatewayTimeout, CodeDeadline, "request abandoned before a worker was free: "+err.Error(), nil)
	}
	if runErr != nil {
		return errOutcome(http.StatusInternalServerError, CodeInternal, "emulation: "+runErr.Error(), nil)
	}
	if evicted := s.cache.Put(pr.key, body); evicted {
		s.metrics.CacheEvictions.Inc()
	}
	s.metrics.CacheMisses.Inc()
	return outcome{status: http.StatusOK, cache: "miss", body: body}
}

// requestCtx applies the server's per-request deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

// handleEstimate is the single-estimate endpoint: decode → raw-index
// probe → shared pipeline → one report or one coded error. The raw
// probe ("raw_probe" span) short-circuits a verbatim repeat of an
// already-served request before any scheme parsing; everything else
// falls through to the canonical pipeline, whose 200s feed the raw
// index for next time, under the key the probe derived: one hash of
// the request per request. Batch items never consult the raw index —
// they deduplicate against each other by canonical key instead.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		fail(w, http.StatusServiceUnavailable, CodeDraining, "server is draining", nil)
		return
	}
	if r.Method != http.MethodPost {
		fail(w, http.StatusMethodNotAllowed, CodeBadRequest, "POST required", nil)
		return
	}
	tr := reqtrace.FromContext(r.Context())
	sp := tr.Span("decode")
	var req EstimateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		tr.Attr(sp, "code", CodeBadRequest)
		tr.End(sp)
		fail(w, http.StatusBadRequest, CodeBadRequest, "request body: "+err.Error(), nil)
		return
	}
	tr.End(sp)
	var rawKey [sha256.Size]byte
	if s.rawIndex != nil {
		sp = tr.Span("raw_probe")
		rh := rawHashers.Get().(*rawHasher)
		copy(rawKey[:], rh.requestKey(&req))
		rawHashers.Put(rh)
		if body, ok := s.rawIndex.GetBytes(rawKey[:]); ok {
			tr.Attr(sp, "result", "hit")
			tr.End(sp)
			s.metrics.RawHits.Inc()
			sp = tr.Span("serialize")
			writeReport(w, body, "hit")
			tr.End(sp)
			return
		}
		tr.Attr(sp, "result", "miss")
		tr.End(sp)
	}
	pr, out := s.parseRequest(tr, reqtrace.RootSpan, &req)
	if out.status != 0 {
		fail(w, out.status, out.code, out.msg, out.diags)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	out = s.estimate(ctx, tr, reqtrace.RootSpan, pr)
	if out.status != http.StatusOK {
		fail(w, out.status, out.code, out.msg, out.diags)
		return
	}
	if s.rawIndex != nil {
		s.rawIndex.PutBytes(rawKey[:], out.body)
	}
	sp = tr.Span("serialize")
	writeReport(w, out.body, out.cache)
	tr.End(sp)
}

// writeReport writes a 200 report-JSON response. The body bytes are
// exactly what `segbus-emu -report-json` writes for the same schemes;
// cache state travels in a header so it cannot perturb the payload.
func writeReport(w http.ResponseWriter, body []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Segbus-Cache", cacheState)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// healthzBody is the /healthz response shape.
type healthzBody struct {
	Status       string `json:"status"` // "ok" or "draining"
	Code         string `json:"code,omitempty"`
	InFlight     int64  `json:"in_flight"`
	CacheEntries int    `json:"cache_entries"`
}

// handleHealthz reports liveness: 200 while serving, 503 once the
// drain has begun (so load balancers stop routing here).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		fail(w, http.StatusMethodNotAllowed, CodeBadRequest, "GET required", nil)
		return
	}
	b := healthzBody{
		Status:       "ok",
		InFlight:     s.pool.InFlight(),
		CacheEntries: s.cache.Len(),
	}
	status := http.StatusOK
	if s.draining.Load() {
		b.Status, b.Code, status = "draining", CodeDraining, http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(b)
}
