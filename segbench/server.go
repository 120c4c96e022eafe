package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"segbus/internal/conform"
	"segbus/internal/core"
	"segbus/internal/obs"
	"segbus/internal/schema"
	"segbus/internal/serve"
)

// liveServer is a serve.Server behind a real loopback listener, built
// the way segbus-served builds it with its default flags.
type liveServer struct {
	srv     *serve.Server
	handler http.Handler
	http    *http.Server
	base    string
	done    chan struct{}
}

// startServer constructs the server, starts listening and returns once
// /healthz has answered 200.
func startServer() (*liveServer, error) {
	s := serve.New(serve.Config{
		Queue:          -1,
		CacheEntries:   1024,
		RequestTimeout: 30 * time.Second,
		Registry:       obs.NewRegistry(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	ls := &liveServer{
		srv:     s,
		handler: h,
		http:    &http.Server{Handler: h},
		base:    "http://" + ln.Addr().String(),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(ls.done)
		ls.http.Serve(ln)
	}()
	c := newClient()
	defer c.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := c.Get(ls.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		if time.Now().After(deadline) {
			ls.close()
			return nil, fmt.Errorf("server never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the listener and open connections and waits for Serve
// to return.
func (l *liveServer) close() {
	l.http.Close()
	<-l.done
}

// counters scrapes /metrics and sums each family over its labels.
func (l *liveServer) counters(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(l.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return promCounters(body), nil
}

// Counter families read from /metrics.
const (
	famCacheHits   = "segbus_served_cache_hits_total"
	famCacheMisses = "segbus_served_cache_misses_total"
	famRawHits     = "segbus_served_raw_index_hits_total"
	famPoolHits    = "segbus_served_machine_pool_hits_total"
	famPoolMisses  = "segbus_served_machine_pool_misses_total"
	famCoalesced   = "segbus_served_coalesced_total"
)

// counterDelta is after − before for each family.
func counterDelta(before, after map[string]float64) map[string]int64 {
	out := make(map[string]int64)
	for _, f := range []string{famCacheHits, famCacheMisses, famRawHits, famPoolHits, famPoolMisses, famCoalesced} {
		out[f] = int64(after[f] - before[f])
	}
	return out
}

// serverRatios are the cache and pool ratios of a counter delta over n
// requests.
func serverRatios(d map[string]int64, n int64) map[string]metric {
	return map[string]metric{
		"serve.raw_hit_ratio":      {ratio(d[famRawHits], n), "ratio"},
		"serve.cache_hit_ratio":    {ratio(d[famCacheHits], d[famCacheHits]+d[famCacheMisses]), "ratio"},
		"emulator.pool_warm_ratio": {ratio(d[famPoolHits], d[famPoolHits]+d[famPoolMisses]), "ratio"},
	}
}

// newClient returns a client that keeps exactly one connection open,
// so each load goroutine is one client connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// post sends one POST /estimate and reads the whole response into buf.
// The latency runs from sending to the last body byte.
func post(c *http.Client, base string, body []byte, buf *bytes.Buffer) (status int, lat time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, base+"/estimate", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat = time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	return resp.StatusCode, lat, nil
}

// servable is one servable (PSDF, PSM) pair of the seeded corpus.
type servable struct {
	psdf, psm   string
	packageSize int    // the PSM's own package size
	body        []byte // the verbatim /estimate request
}

// corpusPool is how many distinct servable pairs a corpus of n pairs is
// drawn from. The n are spread evenly over the pool sorted by request
// size, so every seed's corpus has the same size profile: seeds differ
// in which models they hold, not in how heavy their mix is.
const corpusPool = 4

// servableCorpus returns n servable pairs with distinct canonical keys,
// stratified by request size and shuffled by the seed.
func servableCorpus(seed int64, n int) ([]servable, error) {
	pool, err := distinctServable(seed, corpusPool*n)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(pool, func(i, j int) bool { return len(pool[i].body) < len(pool[j].body) })
	out := make([]servable, n)
	for i := range out {
		out[i] = pool[(2*i+1)*len(pool)/(2*n)]
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// distinctServable returns the first n pairs of conform.ServableCases
// whose canonical keys are distinct: generated cases can coincide, and
// a repeat would turn a cold request into a cache hit.
func distinctServable(seed int64, n int) ([]servable, error) {
	for want := n; ; want += n/4 + 1 {
		cases, err := conform.ServableCases(seed, want, nil)
		if err != nil {
			return nil, err
		}
		seen := make(map[string]bool, n)
		out := make([]servable, 0, n)
		for _, c := range cases {
			psdfXML, psmXML, err := c.Schemes()
			if err != nil {
				return nil, err
			}
			m, err := schema.ParsePSDF(psdfXML)
			if err != nil {
				return nil, err
			}
			plat, err := schema.ParsePSM(psmXML)
			if err != nil {
				return nil, err
			}
			key, err := core.Key(m, plat, core.Options{})
			if err != nil {
				return nil, err
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			body, err := json.Marshal(serve.EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)})
			if err != nil {
				return nil, err
			}
			out = append(out, servable{psdf: string(psdfXML), psm: string(psmXML), packageSize: plat.PackageSize, body: body})
			if len(out) == n {
				return out, nil
			}
		}
	}
}
