package serve

import (
	"container/list"
	"strconv"
	"sync"

	"segbus/internal/obs"
)

// defaultCacheShards is the shard count NewShardedCache selects when
// the caller passes 0: enough to keep eight concurrent request
// goroutines off each other's locks while staying small enough that a
// modest cache still fills every shard.
const defaultCacheShards = 8

// maxCacheShards caps the shard count: routing uses the first byte of
// the hex fingerprint, which distinguishes at most 256 shards.
const maxCacheShards = 256

// Cache is the content-addressed result cache: core.Key addresses map
// to serialized report JSON. Because equal keys promise byte-identical
// reports (the key covers every value the m2t schemes carry, clocks at
// full precision, and every report-affecting option), a hit can be
// served verbatim — the cache stores the exact bytes a cold run would
// produce.
//
// The cache is sharded: a power-of-two number of independent LRU
// shards, each behind its own mutex, with a key routed by its
// fingerprint prefix (the first byte of the hex SHA-256, uniformly
// distributed by construction). Concurrent requests for different
// keys therefore contend only 1/shards of the time, and eviction
// stays exact per shard. Each shard keeps its own hit/miss/eviction
// tallies, optionally mirrored into an obs.Registry as
// shard-labelled counters.
//
// The cache is safe for concurrent use. Stored values are treated as
// immutable: Put keeps the slice it is given and Get returns it
// without copying, so callers must not mutate either.
type Cache struct {
	shards []*cacheShard
	mask   uint32
	max    int // total capacity; <= 0 disables
}

// cacheShard is one independently locked LRU.
type cacheShard struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions int64 // guarded by mu

	// Optional obs mirrors (nil-safe handles).
	mHits, mMisses, mEvictions *obs.Counter
}

// cacheEntry is one LRU node.
type cacheEntry struct {
	key string
	val []byte
}

// CacheShardStats is one shard's probe tally.
type CacheShardStats struct {
	Shard     int   `json:"shard"`
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// NewCache returns an unsharded cache holding at most max entries —
// one shard, exact global LRU. max <= 0 disables caching: every Get
// misses and Put discards.
func NewCache(max int) *Cache {
	return NewShardedCache(max, 1, nil)
}

// NewShardedCache returns a cache holding at most max entries spread
// over the given number of shards (rounded up to a power of two,
// capped at 256; <= 0 selects the default of 8). Every shard holds at
// least one entry, so the effective bound is max(entries, shards).
// reg, when non-nil, receives the per-shard hit/miss/eviction
// counters of the server catalogue; nil disables the mirroring but
// keeps the local tallies.
func NewShardedCache(max, shards int, reg *obs.Registry) *Cache {
	if max <= 0 {
		return &Cache{max: 0}
	}
	if shards <= 0 {
		shards = defaultCacheShards
	}
	if shards > maxCacheShards {
		shards = maxCacheShards
	}
	n := 1
	for n < shards {
		n *= 2
	}
	c := &Cache{shards: make([]*cacheShard, n), mask: uint32(n - 1), max: max}
	base, rem := max/n, max%n
	for i := range c.shards {
		per := base
		if i < rem {
			per++
		}
		if per < 1 {
			per = 1
		}
		label := strconv.Itoa(i)
		c.shards[i] = &cacheShard{
			max:        per,
			ll:         list.New(),
			items:      make(map[string]*list.Element),
			mHits:      reg.Counter(obs.MetricServedCacheShardHits, "shard", label),
			mMisses:    reg.Counter(obs.MetricServedCacheShardMisses, "shard", label),
			mEvictions: reg.Counter(obs.MetricServedCacheShardEvictions, "shard", label),
		}
	}
	return c
}

// hexNibble decodes one lowercase-hex digit.
func hexNibble(b byte) (uint32, bool) {
	switch {
	case b >= '0' && b <= '9':
		return uint32(b - '0'), true
	case b >= 'a' && b <= 'f':
		return uint32(b-'a') + 10, true
	case b >= 'A' && b <= 'F':
		return uint32(b-'A') + 10, true
	}
	return 0, false
}

// shardFor routes a key to its shard index. The key is normally a hex
// SHA-256 fingerprint, whose first two characters are a uniformly
// distributed byte — the prefix alone routes evenly. Shorter or
// non-hex keys fall back to an FNV-1a hash of the raw bytes, so any
// string routes deterministically.
func (c *Cache) shardFor(key string) uint32 {
	if len(key) >= 2 {
		if hi, ok := hexNibble(key[0]); ok {
			if lo, ok := hexNibble(key[1]); ok {
				return (hi<<4 | lo) & c.mask
			}
		}
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h & c.mask
}

// shardForBytes routes a raw binary key (a SHA-256 digest) to its
// shard: the first byte is uniformly distributed by construction, so
// it routes evenly on its own. Raw keys live in their own Cache
// instance (the raw-request index), so the two routing schemes never
// mix within one cache.
func (c *Cache) shardForBytes(key []byte) uint32 {
	if len(key) == 0 {
		return 0
	}
	return uint32(key[0]) & c.mask
}

// GetBytes is Get for a raw binary key. The lookup converts the key
// in place (the compiler elides the map-index string conversion), so
// a probe performs zero heap allocations — the property the raw
// fast path's latency depends on.
func (c *Cache) GetBytes(key []byte) ([]byte, bool) {
	if c == nil || c.max <= 0 {
		return nil, false
	}
	s := c.shards[c.shardForBytes(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[string(key)]
	if !ok {
		s.misses++
		s.mMisses.Inc()
		return nil, false
	}
	s.hits++
	s.mHits.Inc()
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// PutBytes is Put for a raw binary key; the key is copied into an
// owned string only when a new entry is inserted.
func (c *Cache) PutBytes(key []byte, val []byte) (evicted bool) {
	if c == nil || c.max <= 0 {
		return false
	}
	s := c.shards[c.shardForBytes(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[string(key)]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return false
	}
	k := string(key)
	s.items[k] = s.ll.PushFront(&cacheEntry{key: k, val: val})
	if s.ll.Len() <= s.max {
		return false
	}
	oldest := s.ll.Back()
	s.ll.Remove(oldest)
	delete(s.items, oldest.Value.(*cacheEntry).key)
	s.evictions++
	s.mEvictions.Inc()
	return true
}

// ShardFor returns the shard index a key routes to, or -1 when
// caching is disabled — the value request traces attach to their
// cache-probe spans.
func (c *Cache) ShardFor(key string) int {
	if c == nil || c.max <= 0 {
		return -1
	}
	return int(c.shardFor(key))
}

// Get returns the cached value for key and promotes it to most
// recently used within its shard.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil || c.max <= 0 {
		return nil, false
	}
	s := c.shards[c.shardFor(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		s.misses++
		s.mMisses.Inc()
		return nil, false
	}
	s.hits++
	s.mHits.Inc()
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key, evicting the least recently used entry of
// the key's shard when that shard is full, and reports whether an
// eviction happened. Re-putting an existing key refreshes its value
// and recency instead of growing the cache.
func (c *Cache) Put(key string, val []byte) (evicted bool) {
	if c == nil || c.max <= 0 {
		return false
	}
	s := c.shards[c.shardFor(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return false
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
	if s.ll.Len() <= s.max {
		return false
	}
	oldest := s.ll.Back()
	s.ll.Remove(oldest)
	delete(s.items, oldest.Value.(*cacheEntry).key)
	s.evictions++
	s.mEvictions.Inc()
	return true
}

// Len returns the number of cached entries across all shards.
func (c *Cache) Len() int {
	if c == nil || c.max <= 0 {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Shards returns the shard count (0 when caching is disabled).
func (c *Cache) Shards() int {
	if c == nil || c.max <= 0 {
		return 0
	}
	return len(c.shards)
}

// ShardStats returns a consistent-per-shard snapshot of every shard's
// occupancy and probe tallies, in shard order.
func (c *Cache) ShardStats() []CacheShardStats {
	if c == nil || c.max <= 0 {
		return nil
	}
	out := make([]CacheShardStats, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = CacheShardStats{
			Shard:     i,
			Entries:   s.ll.Len(),
			Hits:      s.hits,
			Misses:    s.misses,
			Evictions: s.evictions,
		}
		s.mu.Unlock()
	}
	return out
}
