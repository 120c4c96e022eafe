package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"segbus/internal/analyze"
	"segbus/internal/core"
	"segbus/internal/emulator"
	"segbus/internal/explore"
	"segbus/internal/obs"
	"segbus/internal/place"
	"segbus/internal/platform"
	"segbus/internal/power"
	"segbus/internal/psdf"
	"segbus/internal/sched"
	"segbus/internal/schema"
	"segbus/internal/serve"
)

// eventsFamily is the emulator's engine-event counter in Config.Metrics.
const eventsFamily = "segbus_emu_engine_events_total"

// Handler paths a probed request takes through the server. The layers
// on a path are the timed calls whose self times should add up to
// serve.handler_us.
type path int

const (
	pathCold         path = iota // raw miss, canonical miss, pooled emulation
	pathRawHit                   // answered by the raw-request index
	pathCanonicalHit             // raw miss, answered by the result cache
	pathOffline                  // a job workload: serving is not on its path
)

var onPath = map[path][]string{
	pathCold: {"serve.decode_us", "serve.raw_probe_us", "schema.parse_us", "analyze.preflight_us",
		"m2t.render_us", "core.hash_us", "serve.cache_get_us", "emulator.validate_us",
		"sched.extract_us", "emulator.run_us", "emulator.report_json_us"},
	pathRawHit: {"serve.decode_us", "serve.raw_probe_us"},
	pathCanonicalHit: {"serve.decode_us", "serve.raw_probe_us", "schema.parse_us", "analyze.preflight_us",
		"m2t.render_us", "core.hash_us", "serve.cache_get_us"},
}

// prober is the traced run's instrument: for one request body it calls
// every layer's public function itself, in the server's pipeline
// order, timing each call, then sends the same body to a twin server
// through its handler (no network) and to the measured server over
// loopback, and checks that all three produced the same report.
//
// The twin has the same configuration and warm-up as the measured
// server, so its raw index and cache answer the probe as the measured
// server would; probing the twin's raw index and cache before its
// handler runs leaves them in that state.
type prober struct {
	live, twin *liveServer
	clients    []*http.Client
	bufs       []bytes.Buffer
	machines   []*emulator.Machine // one warm arena per probing goroutine
	enumerate  bool                // time a one-point explore.Space too
	sm         *samples
	calls      atomic.Int64
	skips      atomic.Int64 // probes whose one-point space did not enumerate
	logOnce    sync.Once
}

// newProber starts the twin server; live is the measured one.
func newProber(live *liveServer, n int, enumerate bool) (*prober, error) {
	twin, err := startServer()
	if err != nil {
		return nil, err
	}
	p := &prober{live: live, twin: twin, bufs: make([]bytes.Buffer, n), enumerate: enumerate, sm: newSamples()}
	for i := 0; i < n; i++ {
		p.clients = append(p.clients, newClient())
		p.machines = append(p.machines, emulator.NewMachine())
	}
	return p, nil
}

func (p *prober) close() {
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
	p.twin.close()
}

// fail reports the first probe whose output check failed; the caller
// counts it as a failed operation.
func (p *prober) fail(step string, err error) {
	p.logOnce.Do(func() { fmt.Fprintf(os.Stderr, "segbench: probe %s: %v\n", step, err) })
}

// probeOut is what a probe hands back beyond its samples.
type probeOut struct {
	rtt   time.Duration // loopback round trip, send to last byte
	emuUs float64       // validate + extract + run self: the whole Machine.Run
}

// probe runs one traced request on goroutine c. It records every
// layer's time into p.sm and reports whether all checks passed.
func (p *prober) probe(c int, body []byte, via path) (probeOut, bool) {
	var out probeOut
	lay := make(map[string]float64, 32)
	var t0 time.Time
	begin := func() { t0 = time.Now() }
	end := func(name string) float64 {
		v := usOf(time.Since(t0))
		lay[name] = v
		return v
	}
	failed := func(step string, err error) (probeOut, bool) {
		p.fail(step, err)
		return out, false
	}

	begin()
	var req serve.EstimateRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	end("serve.decode_us")
	if err != nil {
		return failed("decode", err)
	}

	begin()
	p.twin.srv.RawProbe(&req)
	end("serve.raw_probe_us")

	begin()
	var m *psdf.Model
	var plat *platform.Platform
	if m, err = schema.ParsePSDF([]byte(req.PSDF)); err == nil {
		plat, err = schema.ParsePSM([]byte(req.PSM))
	}
	end("schema.parse_us")
	if err != nil {
		return failed("parse", err)
	}
	if req.PackageSize > 0 {
		plat.PackageSize = req.PackageSize
	}
	policy, err := policyOf(req.Policy)
	if err != nil {
		return failed("policy", err)
	}
	opts := core.Options{Policy: policy, DetectTicks: req.DetectTicks}

	begin()
	pre := core.Preflight(m, plat)
	end("analyze.preflight_us")
	if pre.HasErrors() {
		return failed("preflight", fmt.Errorf("%d diagnostics", len(pre.Diagnostics)))
	}

	// core.Key renders both schemes itself, so its self time (hashing)
	// is its duration minus a separate core.Transform of the same pair.
	// The two calls alternate in order, so the second one's warmer
	// caches favour neither in the median.
	renderFirst := p.calls.Add(1)%2 == 0
	var key string
	var keyErr error
	timeKey := func() float64 {
		begin()
		key, keyErr = core.Key(m, plat, opts)
		return end("core.key_us")
	}
	var keyUs float64
	if !renderFirst {
		keyUs = timeKey()
	}
	begin()
	_, _, err = core.Transform(m, plat)
	render := end("m2t.render_us")
	if err != nil {
		return failed("render", err)
	}
	if renderFirst {
		keyUs = timeKey()
	}
	if keyErr != nil {
		return failed("key", keyErr)
	}
	lay["core.hash_us"] = keyUs - render

	begin()
	p.twin.srv.Cache().Get(key)
	end("serve.cache_get_us")

	begin()
	if err = m.Validate(); err == nil {
		if err = plat.Validate(); err == nil {
			if err = plat.ValidateMapping(m); err == nil {
				err = plat.ValidateRoles(m)
			}
		}
	}
	validate := end("emulator.validate_us")
	if err != nil {
		return failed("validate", err)
	}

	begin()
	sch, err := sched.Extract(m, plat.PackageSize)
	extract := end("sched.extract_us")
	if err != nil {
		return failed("extract", err)
	}
	lay["sched.packages_per_op"] = float64(sch.TotalPackages())

	// An untimed run warms the arena for this shape and counts the
	// engine events; the timed run then matches the server's pooled
	// machine.
	ecfg := emulator.Config{Policy: policy, DetectTicks: req.DetectTicks}
	mcfg := ecfg
	mcfg.Metrics = obs.NewRegistry()
	mc := p.machines[c]
	if _, err := mc.Run(m, plat, mcfg); err != nil {
		return failed("warm run", err)
	}
	events := mcfg.Metrics.Counter(eventsFamily).Value()
	begin()
	rep, err := mc.Run(m, plat, ecfg)
	out.emuUs = end("emulator.run_us")
	if err != nil {
		return failed("run", err)
	}
	self := out.emuUs - validate - extract
	lay["emulator.run_us"] = self
	lay["engine.events_per_op"] = float64(events)
	if events > 0 {
		lay["emulator.host_ns_per_event"] = self * 1e3 / float64(events)
	}

	begin()
	report, err := rep.JSON()
	end("emulator.report_json_us")
	if err != nil {
		return failed("report json", err)
	}

	q, err := analyze.NewBoundsQuery(m)
	if err != nil {
		return failed("bounds query", err)
	}
	begin()
	b, err := q.Bounds(plat)
	end("analyze.bounds_us")
	if err != nil {
		return failed("bounds", err)
	}
	begin()
	pf, err := power.NewProfile(m, plat, power.Params{})
	if err == nil {
		pf.LowerBoundPJ(b.LowerPs)
	}
	end("power.profile_us")
	if err != nil {
		return failed("power profile", err)
	}
	begin()
	_, err = power.Estimate(m, plat, rep, power.Params{})
	end("power.estimate_us")
	if err != nil {
		return failed("power estimate", err)
	}

	if p.enumerate {
		p.enumerateOne(m, plat, lay)
	}

	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	begin()
	p.twin.handler.ServeHTTP(rec, hreq)
	handler := end("serve.handler_us")
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), report) {
		return failed("handler", fmt.Errorf("status %d, body equal to the traced report: %v", rec.Code, bytes.Equal(rec.Body.Bytes(), report)))
	}

	status, rtt, err := post(p.clients[c], p.live.base, body, &p.bufs[c])
	if err != nil {
		return failed("round trip", err)
	}
	if status != http.StatusOK || !bytes.Equal(p.bufs[c].Bytes(), report) {
		return failed("round trip", fmt.Errorf("status %d, body equal to the traced report: %v", status, bytes.Equal(p.bufs[c].Bytes(), report)))
	}
	out.rtt = rtt
	lay["net.overhead_us"] = usOf(rtt) - handler

	if names, ok := onPath[via]; ok {
		covered := 0.0
		for _, n := range names {
			covered += lay[n]
		}
		lay["trace.coverage_ratio"] = covered / handler
	}
	for k, v := range lay {
		p.sm.add(k, v)
	}
	return out, true
}

// enumerateOne times explore.Space.Enumerate and place.Solve on a
// one-point space around the probed pair.
func (p *prober) enumerateOne(m *psdf.Model, plat *platform.Platform, lay map[string]float64) {
	segs := plat.NumSegments()
	sp := &explore.Space{
		Segments:     []int{segs},
		PackageSizes: []int{plat.PackageSize},
		HeaderTicks:  []int{plat.HeaderTicks},
		CAHopTicks:   []int{plat.CAHopTicks},
	}
	start := time.Now()
	_, err := sp.Enumerate(m)
	en := time.Since(start)
	if err != nil {
		p.skips.Add(1)
		return
	}
	start = time.Now()
	_, err = place.Solve(m.CommunicationMatrix(), segs, place.Options{})
	solve := time.Since(start)
	if err != nil {
		p.skips.Add(1)
		return
	}
	lay["explore.enumerate_ms"] = usOf(en) / 1e3
	lay["place.solve_ms"] = usOf(solve) / 1e3
}

// policyOf maps a request's policy name as the server does.
func policyOf(name string) (emulator.Policy, error) {
	switch name {
	case "", "bu-first":
		return emulator.PolicyBUFirst, nil
	case "fifo":
		return emulator.PolicyFIFO, nil
	case "fixed-priority":
		return emulator.PolicyFixedPriority, nil
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

// layerMetrics are the per-layer metrics every traced run reports, with
// their units. A workload measures each on its own inputs: the probe
// drives the whole serving pipeline on them even where the workload's
// own path does not run that layer (README.md, "Reading a traced
// run").
var layerMetrics = []struct{ name, unit string }{
	{"serve.handler_us", "us"},
	{"serve.decode_us", "us"},
	{"net.overhead_us", "us"},
	{"serve.raw_probe_us", "us"},
	{"serve.raw_hit_ratio", "ratio"},
	{"serve.cache_get_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"schema.parse_us", "us"},
	{"analyze.preflight_us", "us"},
	{"core.key_us", "us"},
	{"core.hash_us", "us"},
	{"m2t.render_us", "us"},
	{"emulator.validate_us", "us"},
	{"sched.extract_us", "us"},
	{"emulator.run_us", "us"},
	{"emulator.report_json_us", "us"},
	{"sched.packages_per_op", "count"},
	{"engine.events_per_op", "count"},
	{"emulator.host_ns_per_event", "ns"},
	{"emulator.pool_warm_ratio", "ratio"},
	{"explore.enumerate_ms", "ms"},
	{"place.solve_ms", "ms"},
	{"analyze.bounds_us", "us"},
	{"power.profile_us", "us"},
	{"power.estimate_us", "us"},
	{"explore.generated", "count"},
	{"explore.pruned", "count"},
	{"explore.emulated", "count"},
	{"explore.waves", "count"},
	{"explore.pruning_ratio", "ratio"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.coverage_ratio", "ratio"},
	{"trace.req_p50_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// noExploration is the explorer's counts on a workload that never
// runs it.
var noExploration = map[string]metric{
	"explore.generated":     {0, "count"},
	"explore.pruned":        {0, "count"},
	"explore.emulated":      {0, "count"},
	"explore.waves":         {0, "count"},
	"explore.pruning_ratio": {0, "ratio"},
}

// layerReport assembles the per-layer metrics: probe medians first,
// then the workload's own values, which take precedence. It fails when
// a metric is missing, so every traced run reports all of them.
func layerReport(sm *samples, own map[string]metric) (map[string]metric, map[string]int, error) {
	out := make(map[string]metric, len(layerMetrics))
	counts := make(map[string]int)
	for _, lm := range layerMetrics {
		if m, ok := own[lm.name]; ok {
			out[lm.name] = metric{m.Value, lm.unit}
			continue
		}
		v, n := sm.median(lm.name)
		if n == 0 {
			return nil, nil, fmt.Errorf("traced run measured no %s", lm.name)
		}
		out[lm.name] = metric{v, lm.unit}
		counts[lm.name] = n
	}
	return out, counts, nil
}
