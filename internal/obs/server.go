package obs

import (
	"net/http"
	"sync"
)

// Server metric catalogue: the families a long-lived segbus service
// records, mirroring the emulator catalogue in internal/emulator.
// Names follow the Prometheus conventions (unit-suffixed, _total for
// counters); the catalogue is documented in DESIGN.md ("Serving").
const (
	// MetricServedRequests counts finished HTTP requests, labelled by
	// endpoint and status code.
	MetricServedRequests = "segbus_served_requests_total"

	// MetricServedLatency is the request service-time histogram in
	// microseconds, labelled by endpoint.
	MetricServedLatency = "segbus_served_request_latency_us"

	// MetricServedInFlight gauges requests currently being handled.
	MetricServedInFlight = "segbus_served_in_flight_requests"

	// MetricServedCacheHits / Misses / Evictions count result-cache
	// outcomes.
	MetricServedCacheHits      = "segbus_served_cache_hits_total"
	MetricServedCacheMisses    = "segbus_served_cache_misses_total"
	MetricServedCacheEvictions = "segbus_served_cache_evictions_total"

	// MetricServedCoalesced counts estimate requests answered by
	// waiting on an identical in-flight emulation (single-flight
	// coalescing) instead of running their own.
	MetricServedCoalesced = "segbus_served_coalesced_total"

	// MetricServedBatchItems counts the items of /estimate/batch
	// requests, before deduplication.
	MetricServedBatchItems = "segbus_served_batch_items_total"

	// MetricServedCacheShard* are the per-shard result-cache probe
	// counters, labelled by shard index. They count cache probes (one
	// per unique key a request pipeline touches), so they reconcile as
	// hits+misses = probes and evictions ≤ insertions per shard.
	MetricServedCacheShardHits      = "segbus_served_cache_shard_hits_total"
	MetricServedCacheShardMisses    = "segbus_served_cache_shard_misses_total"
	MetricServedCacheShardEvictions = "segbus_served_cache_shard_evictions_total"

	// MetricServedPoolHits / Misses / Discards count machine-pool
	// checkouts: a hit reuses a warm emulator machine, a miss
	// constructs a fresh one, a discard drops a returned machine
	// because its shape's free list (or the pool's shape budget) was
	// full. hits+misses = emulations executed.
	MetricServedPoolHits     = "segbus_served_machine_pool_hits_total"
	MetricServedPoolMisses   = "segbus_served_machine_pool_misses_total"
	MetricServedPoolDiscards = "segbus_served_machine_pool_discards_total"

	// MetricServedRawHits counts estimate requests answered from the
	// raw-request index: the byte-level fast path that recognises a
	// verbatim repeat of an already-served request body before any XML
	// parsing or canonicalisation happens.
	MetricServedRawHits = "segbus_served_raw_index_hits_total"

	// MetricServedQueueFull counts requests shed with 429 because the
	// worker pool had no admission capacity.
	MetricServedQueueFull = "segbus_served_queue_rejections_total"

	// MetricServedDeadline counts requests that hit their deadline
	// (504) before a result was produced.
	MetricServedDeadline = "segbus_served_deadline_exceeded_total"

	// MetricServedDraining is 1 while the server is in its graceful
	// drain, 0 otherwise.
	MetricServedDraining = "segbus_served_draining"
)

// ServedLatencyBoundsUs buckets request service time in microseconds:
// cache hits land in the sub-millisecond buckets, cold emulations of
// paper-sized models in the millisecond ones, and the top buckets
// catch queueing under load.
var ServedLatencyBoundsUs = []int64{
	100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000,
}

// ServerMetrics bundles the catalogue's resolved handles for a
// serving process. Like every obs handle set it is nil-safe end to
// end: NewServerMetrics(nil) returns a value whose updates all no-op,
// so handlers update unconditionally.
type ServerMetrics struct {
	reg *Registry

	// requests caches the per-(endpoint, status) request handles, so
	// only a first-seen label pair renders labels and takes the
	// registry's lock.
	requestsMu sync.RWMutex
	requests   map[requestLabels]requestHandles

	InFlight       *Gauge
	Draining       *Gauge
	CacheHits      *Counter
	CacheMisses    *Counter
	CacheEvictions *Counter
	Coalesced      *Counter
	BatchItems     *Counter
	PoolHits       *Counter
	PoolMisses     *Counter
	PoolDiscards   *Counter
	RawHits        *Counter
	QueueFull      *Counter
	Deadline       *Counter
}

// NewServerMetrics resolves the static handles of the server
// catalogue and registers the help strings. reg may be nil.
func NewServerMetrics(reg *Registry) *ServerMetrics {
	m := &ServerMetrics{
		reg:            reg,
		InFlight:       reg.Gauge(MetricServedInFlight),
		Draining:       reg.Gauge(MetricServedDraining),
		CacheHits:      reg.Counter(MetricServedCacheHits),
		CacheMisses:    reg.Counter(MetricServedCacheMisses),
		CacheEvictions: reg.Counter(MetricServedCacheEvictions),
		Coalesced:      reg.Counter(MetricServedCoalesced),
		BatchItems:     reg.Counter(MetricServedBatchItems),
		PoolHits:       reg.Counter(MetricServedPoolHits),
		PoolMisses:     reg.Counter(MetricServedPoolMisses),
		PoolDiscards:   reg.Counter(MetricServedPoolDiscards),
		RawHits:        reg.Counter(MetricServedRawHits),
		QueueFull:      reg.Counter(MetricServedQueueFull),
		Deadline:       reg.Counter(MetricServedDeadline),
	}
	reg.Describe(MetricServedRequests, "finished HTTP requests by endpoint and status code")
	reg.Describe(MetricServedLatency, "request service time, microseconds")
	reg.Describe(MetricServedInFlight, "requests currently being handled")
	reg.Describe(MetricServedDraining, "1 while the server drains for shutdown")
	reg.Describe(MetricServedCacheHits, "estimate requests answered from the result cache")
	reg.Describe(MetricServedCacheMisses, "estimate requests that ran the emulator")
	reg.Describe(MetricServedCacheEvictions, "result-cache entries evicted to make room")
	reg.Describe(MetricServedCoalesced, "estimate requests answered by an identical in-flight emulation")
	reg.Describe(MetricServedBatchItems, "batch estimate items received, before deduplication")
	reg.Describe(MetricServedCacheShardHits, "result-cache probe hits by shard")
	reg.Describe(MetricServedCacheShardMisses, "result-cache probe misses by shard")
	reg.Describe(MetricServedCacheShardEvictions, "result-cache entries evicted by shard")
	reg.Describe(MetricServedPoolHits, "emulations that reused a pooled machine")
	reg.Describe(MetricServedPoolMisses, "emulations that constructed a fresh machine")
	reg.Describe(MetricServedPoolDiscards, "returned machines dropped because the pool was full")
	reg.Describe(MetricServedRawHits, "estimate requests answered from the raw-request index")
	reg.Describe(MetricServedQueueFull, "requests shed with 429 (worker pool saturated)")
	reg.Describe(MetricServedDeadline, "requests that exceeded their deadline (504)")
	return m
}

// requestLabels is the dynamic label pair of a finished request.
type requestLabels struct{ endpoint, status string }

// requestHandles are the instruments one finished request updates.
type requestHandles struct {
	count   *Counter
	latency *Histogram
}

// requestHandles returns the request counter and latency histogram
// for the label pair, resolving them through the registry only the
// first time the pair is seen.
func (m *ServerMetrics) requestHandles(endpoint, status string) requestHandles {
	k := requestLabels{endpoint, status}
	m.requestsMu.RLock()
	h, ok := m.requests[k]
	m.requestsMu.RUnlock()
	if ok {
		return h
	}
	h = requestHandles{
		count:   m.reg.Counter(MetricServedRequests, "endpoint", endpoint, "code", status),
		latency: m.reg.Histogram(MetricServedLatency, ServedLatencyBoundsUs, "endpoint", endpoint),
	}
	m.requestsMu.Lock()
	if m.requests == nil {
		m.requests = make(map[requestLabels]requestHandles)
	}
	m.requests[k] = h
	m.requestsMu.Unlock()
	return h
}

// Request records one finished request: the per-endpoint/status
// counter and the per-endpoint latency histogram. The handles of each
// label pair are resolved once and cached, so arbitrary
// endpoint/status combinations stay cheap and a repeated one costs no
// allocation and no registry lock.
func (m *ServerMetrics) Request(endpoint, status string, latencyUs int64) {
	if m == nil || m.reg == nil {
		return
	}
	h := m.requestHandles(endpoint, status)
	h.count.Inc()
	h.latency.Observe(latencyUs)
}

// RequestTraced is Request for a sampled request: the latency
// observation additionally stamps the request's trace id as the
// landing bucket's exemplar, so the Prometheus exposition links every
// latency bucket to a concrete /debug/requests trace.
func (m *ServerMetrics) RequestTraced(endpoint, status string, latencyUs int64, traceID string) {
	if m == nil || m.reg == nil {
		return
	}
	h := m.requestHandles(endpoint, status)
	h.count.Inc()
	h.latency.ObserveExemplar(latencyUs, traceID)
}

// Handler serves the registry in Prometheus text exposition — the
// /metrics endpoint of a serving process. A nil registry serves an
// empty exposition.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if r == nil {
			return
		}
		_ = r.WritePrometheus(w)
	})
}
