package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"segbus/internal/core"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/schema"
	"segbus/internal/serve"
)

const (
	// setupReps batches of setupBatch server builds measure set-up
	// time; the warm workload's set-up (64 emulations) is long enough
	// to time one at a time.
	setupReps  = 11
	setupBatch = 10
	// serveWarmup is run, unmeasured, before the measured loop: the
	// first second of a fresh process has a p99 about twice the
	// steady one, and the cold workload needs its 1024-entry cache
	// full so that measured requests evict.
	serveWarmup = time.Second
	// coldBases is the number of distinct servable pairs the cold
	// stream cycles through.
	coldBases = 256
	// hotPairs is the warm workload's hot set.
	hotPairs = 64
)

// serveSpec is what distinguishes the two serving workloads.
type serveSpec struct {
	// warm runs on every server the workload builds, as part of its
	// set-up.
	warm func(*liveServer) error
	// body appends request seq's JSON body to dst.
	body func(dst []byte, seq int64) []byte
	// via is the handler path request seq takes.
	via func(seq int64) path
	// check is called for every 200 on client goroutine c; it may
	// defer the comparison to finish.
	check func(c int, seq int64, payload []byte) bool
	// finish completes the deferred checks and returns the mismatches.
	finish func() (int64, error)
	// shape checks the measured loop's server counters.
	shape func(d map[string]int64, ops int64) (map[string]any, error)
}

// runServe is the closed loop shared by the serving workloads: cfg.load
// connections, each sending its next request as soon as the previous
// reply has been read.
func runServe(cfg config, batch int, sp serveSpec) (*outcome, error) {
	// Every server built is kept until set-up time has been measured,
	// so shutting one down never counts as set-up; the last one serves.
	var built []*liveServer
	setup, err := timeSetup(setupReps, batch, func() error {
		s, err := startServer()
		if err != nil {
			return err
		}
		built = append(built, s)
		return sp.warm(s)
	})
	if len(built) == 0 {
		return nil, err
	}
	for _, s := range built[:len(built)-1] {
		s.close()
	}
	ls := built[len(built)-1]
	defer ls.close()
	if err != nil {
		return nil, err
	}

	clients := make([]*http.Client, cfg.load)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
	}
	bufs := make([]bytes.Buffer, cfg.load)
	bodies := make([][]byte, cfg.load)
	var seq atomic.Int64
	op := func(c int) (time.Duration, bool, error) {
		n := seq.Add(1) - 1
		bodies[c] = sp.body(bodies[c][:0], n)
		status, lat, err := post(clients[c], ls.base, bodies[c], &bufs[c])
		if err != nil {
			return 0, false, err
		}
		return lat, status == http.StatusOK && sp.check(c, n, bufs[c].Bytes()), nil
	}

	warm, err := closedLoop(cfg.load, serveWarmup, op)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	measured := cfg.dur
	if cfg.trace {
		measured = cfg.dur / 2
	}
	before, err := ls.counters(clients[0])
	if err != nil {
		return nil, err
	}
	st, err := closedLoop(cfg.load, measured, op)
	if err != nil {
		return nil, err
	}
	after, err := ls.counters(clients[0])
	if err != nil {
		return nil, err
	}
	delta := counterDelta(before, after)
	shape, err := sp.shape(delta, st.ops())
	if err != nil {
		return nil, fmt.Errorf("workload shape: %w", err)
	}

	out := &outcome{
		attempted: warm.ops() + st.ops(),
		failed:    warm.failed + st.failed,
		context:   map[string]any{"shape": shape, "warmup_operations": warm.ops()},
	}
	if cfg.trace {
		if err := traceServe(cfg, sp, ls, st, delta, out, func(c int) ([]byte, int64) {
			n := seq.Add(1) - 1
			bodies[c] = sp.body(bodies[c][:0], n)
			return bodies[c], n
		}); err != nil {
			return nil, err
		}
	} else {
		out.metrics, out.context["samples"] = endToEnd(setup, st)
	}
	mism, err := sp.finish()
	if err != nil {
		return nil, err
	}
	out.failed += mism
	return out, nil
}

// traceServe spends the second half of a traced serving run on probed
// requests and fills out with the per-layer metrics. next returns
// goroutine c's next request body and its sequence number.
func traceServe(cfg config, sp serveSpec, ls *liveServer, untraced *loopStats, delta map[string]int64, out *outcome, next func(c int) ([]byte, int64)) error {
	pr, err := newProber(ls, cfg.load, true)
	if err != nil {
		return err
	}
	defer pr.close()
	if err := sp.warm(pr.twin); err != nil {
		return err
	}
	traced, err := closedLoop(cfg.load, cfg.dur-cfg.dur/2, func(c int) (time.Duration, bool, error) {
		body, n := next(c)
		res, ok := pr.probe(c, body, sp.via(n))
		return res.rtt, ok && sp.check(c, n, pr.bufs[c].Bytes()), nil
	})
	if err != nil {
		return err
	}
	out.attempted += traced.ops()
	out.failed += traced.failed

	own := serverRatios(delta, untraced.ops())
	for k, v := range runtimeMetrics(untraced) {
		own[k] = v
	}
	for k, v := range noExploration {
		own[k] = v
	}
	addTraceOverhead(own, untraced, traced)
	layers, counts, err := layerReport(pr.sm, own)
	if err != nil {
		return err
	}
	out.metrics = layers
	out.context["samples"] = map[string]any{
		"untraced_operations": untraced.ops(),
		"traced_operations":   traced.ops(),
		"per_layer":           counts,
		"probe_skips":         pr.skips.Load(),
	}
	return nil
}

// addTraceOverhead reports the traced loop's median latency and how far
// it sits from the untraced loop's in the same process.
func addTraceOverhead(own map[string]metric, untraced, traced *loopStats) {
	u, _ := percentile(untraced.lat, 50)
	t, _ := percentile(traced.lat, 50)
	own["trace.req_p50_us"] = metric{usOf(t), "us"}
	own["trace.overhead_ratio"] = metric{float64(t)/float64(u) - 1, "ratio"}
}

// coldPolicies multiply each base pair's keys: the policy is part of
// the canonical key. "" sends no policy field (the default, bu-first).
var coldPolicies = []string{"", "fifo", "fixed-priority"}

// coldStream maps a request number to a request whose canonical key no
// earlier request of the run had: base pair v mod K, then policy, then
// a detect_ticks override one larger per round (none in the first).
// Both overrides are part of the key but leave the emulation's cost
// alone, so the mix costs the same however many requests a run sends.
type coldStream struct{ bases []servable }

func (s coldStream) variant(v int64) (base int, opts core.Options, policy string) {
	k := int64(len(s.bases))
	base = int(v % k)
	round := v / k
	policy = coldPolicies[round%int64(len(coldPolicies))]
	p, _ := policyOf(policy)
	return base, core.Options{Policy: p, DetectTicks: round / int64(len(coldPolicies))}, policy
}

func (s coldStream) body(dst []byte, v int64) []byte {
	b, opts, policy := s.variant(v)
	verbatim := s.bases[b].body
	dst = append(dst, verbatim[:len(verbatim)-1]...)
	if opts.DetectTicks > 0 {
		dst = append(dst, `,"detect_ticks":`...)
		dst = strconv.AppendInt(dst, opts.DetectTicks, 10)
	}
	if policy != "" {
		dst = append(dst, `,"policy":"`...)
		dst = append(dst, policy...)
		dst = append(dst, '"')
	}
	return append(dst, '}')
}

// parsedBase is a base pair's schemes parsed for the oracle.
type parsedBase struct {
	m    *psdf.Model
	plat *platform.Platform
}

// parse parses every base pair's schemes once.
func (s coldStream) parse() ([]parsedBase, error) {
	out := make([]parsedBase, len(s.bases))
	for i, b := range s.bases {
		m, err := schema.ParsePSDF([]byte(b.psdf))
		if err != nil {
			return nil, err
		}
		plat, err := schema.ParsePSM([]byte(b.psm))
		if err != nil {
			return nil, err
		}
		out[i] = parsedBase{m, plat}
	}
	return out, nil
}

// oracle is the estimation pipeline's report for request v: the base's
// parsed schemes estimated under the request's options and rendered as
// report JSON.
func (s coldStream) oracle(parsed []parsedBase, v int64) ([]byte, error) {
	b, opts, _ := s.variant(v)
	est, err := core.Estimate(parsed[b].m, parsed[b].plat, opts)
	if err != nil {
		return nil, err
	}
	return est.Report.JSON()
}

// runServeCold: every request is new to the server, so each one pays
// for parse, preflight, key derivation, a pooled emulation and the
// report JSON, and the caches only miss, insert and evict.
func runServeCold(cfg config) (*outcome, error) {
	bases, err := servableCorpus(cfg.seed, coldBases)
	if err != nil {
		return nil, err
	}
	stream := coldStream{bases}
	type record struct {
		seq    int64
		digest [sha256.Size]byte
	}
	// Bodies are kept as digests so the run's memory holds no responses;
	// the oracle is computed after the loop, outside every timing.
	recs := make([][]record, cfg.load)
	return runServe(cfg, setupBatch, serveSpec{
		warm: func(*liveServer) error { return nil },
		body: stream.body,
		via:  func(int64) path { return pathCold },
		check: func(c int, seq int64, payload []byte) bool {
			recs[c] = append(recs[c], record{seq, sha256.Sum256(payload)})
			return true
		},
		finish: func() (int64, error) {
			var all []record
			for c := range recs {
				all = append(all, recs[c]...)
				recs[c] = nil
			}
			mism := make([]int64, cfg.load)
			errs := make([]error, cfg.load)
			var wg sync.WaitGroup
			for w := 0; w < cfg.load; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					parsed, err := stream.parse()
					for i := w; err == nil && i < len(all); i += cfg.load {
						var want []byte
						if want, err = stream.oracle(parsed, all[i].seq); err == nil && sha256.Sum256(want) != all[i].digest {
							mism[w]++
						}
					}
					errs[w] = err
				}()
			}
			wg.Wait()
			var n int64
			for _, m := range mism {
				n += m
			}
			return n, errors.Join(errs...)
		},
		shape: func(d map[string]int64, ops int64) (map[string]any, error) {
			shape := map[string]any{
				"raw_hits":       d[famRawHits],
				"canonical_hits": d[famCacheHits],
				"coalesced":      d[famCoalesced],
				"cache_misses":   d[famCacheMisses],
				"requests":       ops,
				"distinct_bases": len(bases),
			}
			if d[famRawHits] != 0 || d[famCacheHits] != 0 || d[famCoalesced] != 0 || d[famCacheMisses] != ops {
				return shape, fmt.Errorf("cold requests were answered from a cache: %v", shape)
			}
			return shape, nil
		},
	})
}

// reencoded is a hot pair's re-encoded request, split around the
// per-request counter that makes every body unique.
type reencoded struct{ prefix, suffix []byte }

// counterMark stands for the counter while the template is built.
const counterMark = "SEGBENCH-COUNTER"

// reencode builds a pair's re-encoded template: an XML comment carrying
// the counter after the PSDF's declaration, and both schemes indented
// with tabs instead of spaces. Neither change reaches the canonical
// key.
func reencode(s servable) (reencoded, error) {
	decl, rest, ok := strings.Cut(s.psdf, "\n")
	if !ok {
		return reencoded{}, fmt.Errorf("PSDF scheme has a single line")
	}
	psdf := decl + "\n<!-- segbench request " + counterMark + " -->\n" + reindent(rest)
	body, err := json.Marshal(serve.EstimateRequest{PSDF: psdf, PSM: reindent(s.psm)})
	if err != nil {
		return reencoded{}, err
	}
	i := bytes.Index(body, []byte(counterMark))
	return reencoded{prefix: body[:i], suffix: body[i+len(counterMark):]}, nil
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

// canonicalKey is the key the server derives for a pair: parse both
// schemes, then core.Key under the request's options.
func canonicalKey(psdfXML, psmXML string, opts core.Options) (string, error) {
	m, err := schema.ParsePSDF([]byte(psdfXML))
	if err != nil {
		return "", err
	}
	plat, err := schema.ParsePSM([]byte(psmXML))
	if err != nil {
		return "", err
	}
	return core.Key(m, plat, opts)
}

// sameKey checks that a re-encoded request parses to the verbatim
// pair's canonical key.
func sameKey(s servable, r reencoded) error {
	var req serve.EstimateRequest
	body := append(append(append([]byte(nil), r.prefix...), '0'), r.suffix...)
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	a, err := canonicalKey(s.psdf, s.psm, core.Options{})
	if err != nil {
		return err
	}
	b, err := canonicalKey(req.PSDF, req.PSM, core.Options{})
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("re-encoded pair has key %s, verbatim %s", b, a)
	}
	return nil
}

// runServeWarm: a hot set of 64 pairs, all warmed in set-up. Even
// requests repeat a pair verbatim, which the raw-request index answers;
// odd ones re-encode it uniquely, so they miss the raw index and hit
// the canonical cache after parse, preflight and key derivation.
func runServeWarm(cfg config) (*outcome, error) {
	hot, err := servableCorpus(cfg.seed, hotPairs)
	if err != nil {
		return nil, err
	}
	oracles := make([][]byte, len(hot))
	templates := make([]reencoded, len(hot))
	for i, s := range hot {
		est, err := core.EstimateXML([]byte(s.psdf), []byte(s.psm), 0, core.Options{})
		if err != nil {
			return nil, err
		}
		if oracles[i], err = est.Report.JSON(); err != nil {
			return nil, err
		}
		if templates[i], err = reencode(s); err != nil {
			return nil, err
		}
		if err := sameKey(s, templates[i]); err != nil {
			return nil, err
		}
	}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(hot))
	pairOf := func(seq int64) int { return order[(seq/2)%int64(len(hot))] }
	return runServe(cfg, 1, serveSpec{
		warm: func(ls *liveServer) error {
			c := newClient()
			defer c.CloseIdleConnections()
			var buf bytes.Buffer
			for i, s := range hot {
				status, _, err := post(c, ls.base, s.body, &buf)
				if err != nil {
					return err
				}
				if status != http.StatusOK || !bytes.Equal(buf.Bytes(), oracles[i]) {
					return fmt.Errorf("warming hot pair %d: status %d, report equal to the oracle: %v", i, status, bytes.Equal(buf.Bytes(), oracles[i]))
				}
			}
			return nil
		},
		body: func(dst []byte, seq int64) []byte {
			p := pairOf(seq)
			if seq%2 == 0 {
				return append(dst, hot[p].body...)
			}
			dst = append(dst, templates[p].prefix...)
			dst = strconv.AppendInt(dst, seq, 10)
			return append(dst, templates[p].suffix...)
		},
		via: func(seq int64) path {
			if seq%2 == 0 {
				return pathRawHit
			}
			return pathCanonicalHit
		},
		check: func(_ int, seq int64, payload []byte) bool {
			return bytes.Equal(payload, oracles[pairOf(seq)])
		},
		finish: func() (int64, error) { return 0, nil },
		shape: func(d map[string]int64, ops int64) (map[string]any, error) {
			emulations := d[famPoolHits] + d[famPoolMisses]
			shape := map[string]any{
				"emulations":      emulations,
				"raw_hits":        d[famRawHits],
				"canonical_hits":  d[famCacheHits],
				"cache_misses":    d[famCacheMisses],
				"requests":        ops,
				"raw_hit_share":   ratio(d[famRawHits], ops),
				"canonical_share": ratio(d[famCacheHits], ops),
				"hot_pairs":       len(hot),
			}
			if emulations != 0 || d[famCacheMisses] != 0 || d[famRawHits]+d[famCacheHits] != ops {
				return shape, fmt.Errorf("warm requests were not all cache hits: %v", shape)
			}
			return shape, nil
		},
	})
}
