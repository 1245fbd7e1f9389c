// Package cache provides the catalog's read-cache substrate: a sharded
// LRU keyed by any comparable type, with generation-stamped
// invalidation.
//
// Every entry is stamped with the generation the caller observed when it
// was stored. A lookup presents the generation it currently observes;
// with Get, an entry whose stamp differs is treated as a miss and
// dropped. The catalog's generation is the epoch of its published
// snapshot, and every commit (ingest, delete, publish, registration)
// publishes a new one, so invalidating every derived result that any
// write can change — evaluated query IDs, memoized index probes — costs
// nothing beyond the commit, with no per-entry dependency tracking.
//
// GetValid serves values that depend on only part of the state: on a
// stamp mismatch the caller's check decides whether the entry is still
// current at the presented generation, and a passing entry is restamped
// instead of dropped. The catalog's rebuilt response documents use it,
// so a write keeps the documents of objects it did not touch.
//
// The stamping contract: a value stored or restamped under generation g
// must equal what the state of generation g computes. The catalog meets
// it by computing (or checking) from the immutable snapshot a reader
// pinned at epoch g and stamping with that snapshot's epoch; no lock is
// held across the computation.
package cache

import (
	"sync"

	"github.com/gridmeta/hybridcat/internal/obs"
)

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Stale     uint64 `json:"stale"` // entries dropped on a generation mismatch no check saved
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// Cache is a sharded, generation-stamped LRU. The zero value and the nil
// cache are both valid "disabled" caches: every lookup misses without
// recording stats and GetOrCompute degenerates to calling the loader.
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	hash   func(K) uint64
	cap    int // total capacity across shards

	// Counters are obs handles so a registry can adopt them; New starts
	// them detached. They are swapped only by Instrument, before the
	// cache is shared (see Instrument).
	hits, misses, evictions, stale *obs.Counter
}

// entry is one cached value; entries form the shard's LRU list.
type entry[K comparable, V any] struct {
	key        K
	gen        uint64
	val        V
	prev, next *entry[K, V]
}

type shard[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[K, V]
	// LRU list: head is most recent, tail next to be evicted.
	head, tail *entry[K, V]
	cap        int
}

// New builds a cache holding up to capacity entries, split across shards
// sized for low lock contention. hash maps a key to its shard; use
// StringHash/Int64Hash or any well-mixed function. capacity <= 0 returns
// nil — a valid, always-miss cache.
func New[K comparable, V any](capacity int, hash func(K) uint64) *Cache[K, V] {
	if capacity <= 0 {
		return nil
	}
	nShards := 16
	for nShards > 1 && capacity/nShards < 8 {
		nShards /= 2
	}
	c := &Cache[K, V]{shards: make([]shard[K, V], nShards), hash: hash, cap: capacity}
	c.hits, c.misses = obs.NewCounter(), obs.NewCounter()
	c.evictions, c.stale = obs.NewCounter(), obs.NewCounter()
	per := (capacity + nShards - 1) / nShards
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].entries = make(map[K]*entry[K, V])
	}
	return c
}

func (c *Cache[K, V]) shardFor(key K) *shard[K, V] {
	return &c.shards[c.hash(key)%uint64(len(c.shards))]
}

// Get returns the value stored for key at the given generation. An entry
// stamped with a different generation counts as stale and is dropped.
func (c *Cache[K, V]) Get(gen uint64, key K) (V, bool) {
	return c.GetValid(gen, key, nil)
}

// GetValid is Get for values that can outlive the generation they were
// stored at. An entry stamped with gen is served as Get serves it. An
// entry stamped with another generation is served only if valid reports
// it still current at gen, and is then restamped with gen, so later
// lookups at gen skip the check; otherwise (or with a nil valid) it
// counts as stale and is dropped. valid runs under the shard's lock: it
// must be quick and must not call back into the cache.
func (c *Cache[K, V]) GetValid(gen uint64, key K, valid func(K, V) bool) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		c.misses.Inc()
		return zero, false
	}
	if e.gen != gen {
		if valid == nil || !valid(key, e.val) {
			s.unlink(e)
			delete(s.entries, key)
			c.stale.Inc()
			c.misses.Inc()
			return zero, false
		}
		e.gen = gen
	}
	s.moveFront(e)
	c.hits.Inc()
	return e.val, true
}

// Put stores a value stamped with the given generation, evicting the
// least recently used entry if the shard is full.
func (c *Cache[K, V]) Put(gen uint64, key K, val V) {
	if c == nil {
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil {
		e.gen, e.val = gen, val
		s.moveFront(e)
		return
	}
	e := &entry[K, V]{key: key, gen: gen, val: val}
	s.entries[key] = e
	s.pushFront(e)
	if len(s.entries) > s.cap {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.key)
		c.evictions.Inc()
	}
}

// GetOrCompute returns the cached value for key at the given generation,
// or runs load and stores what it returns. Concurrent misses for one key
// each run load; the last store wins. Errors are returned and never
// cached.
func (c *Cache[K, V]) GetOrCompute(gen uint64, key K, load func() (V, error)) (V, error) {
	if v, ok := c.Get(gen, key); ok {
		return v, nil
	}
	v, err := load()
	if err == nil {
		c.Put(gen, key, v)
	}
	return v, err
}

// Instrument re-homes the cache's counters onto reg under the
// cache_hits_total / cache_misses_total / cache_evictions_total /
// cache_stale_total families labeled {layer="..."}, and registers
// cache_entries and cache_capacity gauges sampled at exposition time.
// Stats keeps reporting the same numbers through the shared handles.
// Call it once, after New and before the cache is shared between
// goroutines; counts recorded while detached are not carried over.
// No-op on a nil cache or nil registry.
func (c *Cache[K, V]) Instrument(reg *obs.Registry, layer string) {
	if c == nil || reg == nil {
		return
	}
	l := obs.L("layer", layer)
	c.hits = reg.Counter("cache_hits_total", l)
	c.misses = reg.Counter("cache_misses_total", l)
	c.evictions = reg.Counter("cache_evictions_total", l)
	c.stale = reg.Counter("cache_stale_total", l)
	reg.GaugeFunc("cache_entries", func() int64 { return int64(c.Len()) }, l)
	cap := int64(c.cap)
	reg.GaugeFunc("cache_capacity", func() int64 { return cap }, l)
}

// Stats snapshots the counters. A nil cache reports zeros.
func (c *Cache[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Stale:     c.stale.Value(),
		Entries:   c.Len(),
		Capacity:  c.cap,
	}
}

// Len returns the number of live entries.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// LRU list helpers; the caller holds the shard lock.

func (s *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard[K, V]) moveFront(e *entry[K, V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// StringHash is FNV-1a over the key bytes; a good default shard hash for
// string keys.
func StringHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Int64Hash mixes an int64 key (splitmix64 finalizer), so sequential IDs
// spread across shards.
func Int64Hash(v int64) uint64 {
	x := uint64(v)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
