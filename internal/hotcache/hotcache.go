// Package hotcache memoizes window-query results for hot regions of a
// scene. Continuous retrieval streams revisit the same neighbourhoods —
// many viewers orbit the same landmark, a paused client re-requests an
// identical frame — so the server repeatedly re-runs index searches whose
// answers have not changed. The cache short-circuits those: a query's
// result (the ascending id set, the node I/O it cost, and optionally the
// serialized response payload) is stored under a quantized region key
// and replayed verbatim. A served scene never changes after its build
// (new data arrives as a new scene, with a cache of its own), so a
// stored result stays right for as long as the entry lives.
//
// Correctness rests on exact-query verification: BucketOf buckets
// queries by quantized region coordinates and value band, but the entry
// stores the exact query floats; a Get whose query differs in any
// coordinate is a miss, never a wrong answer. Bucketing only bounds the
// table size. Replayed responses are therefore byte-identical to what an
// uncached search would return.
//
// Page residency is the pager's business alone: an entry holds ids, not
// pages, so a region whose page turns unreadable after it was stored is
// withheld at encode time exactly like an uncached one.
package hotcache

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/index"
)

// Config sizes the cache.
type Config struct {
	// MaxEntries bounds the number of cached results (≤ 0 → 1024).
	MaxEntries int
	// MaxBytes bounds the summed size of cached id sets and payloads
	// (≤ 0 → 8 MiB). Entries are evicted least-recently-used first.
	MaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1024
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 8 << 20
	}
	return c
}

// Bucket is the quantized region address both sharing layers key on:
// the cache holds at most one entry per bucket (last Put wins) and the
// coalescer (retrieval.Coalescer) at most one flight; the exact query
// lives in the entry or flight. Bucketing only bounds the tables — a
// query that differs from its bucket's occupant misses.
type Bucket struct {
	x0, y0, x1, y1 int64
	z0, z1         int64
	w0, w1         int64
}

// The bucket quantization: 64 world units in space, 0.25 in value.
const (
	bucketCell = 64
	bucketBand = 0.25
)

// BucketOf returns the bucket a query falls in.
func BucketOf(q index.Query) Bucket {
	return Bucket{
		x0: quantize(q.Region.Min.X, bucketCell),
		y0: quantize(q.Region.Min.Y, bucketCell),
		x1: quantize(q.Region.Max.X, bucketCell),
		y1: quantize(q.Region.Max.Y, bucketCell),
		z0: quantize(q.ZMin, bucketCell),
		z1: quantize(q.ZMax, bucketCell),
		w0: quantize(q.WMin, bucketBand),
		w1: quantize(q.WMax, bucketBand),
	}
}

func quantize(v, cell float64) int64 {
	f := math.Floor(v / cell)
	// Clamp the pathological edges (±Inf, NaN, overflow) into a bucket
	// instead of invoking undefined float→int conversion.
	switch {
	case math.IsNaN(f):
		return math.MinInt64
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

// entry is one cached result. ids and payload are immutable once set
// (readers copy out of them without holding the lock); list pointers and
// payload attachment are guarded by the cache mutex.
type entry struct {
	k       Bucket
	q       index.Query
	ids     []int64
	io      int64
	payload []byte
	bytes   int64
	prev    *entry
	next    *entry
}

// Cache is a bounded LRU of memoized query results. All methods are safe
// for concurrent use. The zero Cache is not usable; call New.
type Cache struct {
	cfg Config

	mu    sync.Mutex
	m     map[Bucket]*entry
	head  *entry // most recently used
	tail  *entry // least recently used
	bytes int64
	// subs counts live subscriptions per bucket (see Subscribe). A
	// subscribed bucket's entry is exempt from LRU eviction — the
	// multicast contract is that a hot region's payload stays resident
	// while anyone is watching it — though a Put of another query in the
	// bucket still replaces it.
	subs map[Bucket]int

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	subscribers atomic.Int64
	payloadHits atomic.Int64
}

// New builds an empty cache with the given bounds.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	return &Cache{cfg: cfg, m: make(map[Bucket]*entry, cfg.MaxEntries), subs: make(map[Bucket]int)}
}

// Get looks the query up. On a hit it appends the cached ids to buf and
// returns the extended buffer, the node I/O the populating search cost
// (responses must replay it to stay byte-identical to an uncached
// serve), and true.
func (c *Cache) Get(q index.Query, buf []int64) ([]int64, int64, bool) {
	c.mu.Lock()
	e := c.lookupLocked(q)
	if e == nil {
		c.mu.Unlock()
		c.misses.Add(1)
		return buf, 0, false
	}
	c.touchLocked(e)
	ids, io := e.ids, e.io
	c.mu.Unlock()
	c.hits.Add(1)
	return append(buf, ids...), io, true
}

// lookupLocked returns the entry holding exactly q, or nil. The caller
// holds c.mu.
func (c *Cache) lookupLocked(q index.Query) *entry {
	if e := c.m[BucketOf(q)]; e != nil && e.q == q {
		return e
	}
	return nil
}

// Put stores a search result. ids is copied; the caller keeps ownership
// of its buffer.
func (c *Cache) Put(q index.Query, ids []int64, io int64) {
	e := &entry{
		k:     BucketOf(q),
		q:     q,
		io:    io,
		bytes: entryOverhead + int64(len(ids))*8,
	}
	if len(ids) > 0 {
		e.ids = append([]int64(nil), ids...)
	}
	c.mu.Lock()
	if old := c.m[e.k]; old != nil {
		// Last one wins — a bucket collision replaces the incumbent and
		// counts as an eviction.
		c.removeLocked(old)
		c.evictions.Add(1)
	}
	c.m[e.k] = e
	c.pushLocked(e)
	c.bytes += e.bytes
	c.evictOverflowLocked()
	c.mu.Unlock()
}

// Payload returns the serialized response blob attached to the query's
// entry, if there is one. The returned slice is immutable — callers
// write it out verbatim and must not modify it. The second argument is
// ignored; it is kept only for bench/, whose next change drops it.
func (c *Cache) Payload(q index.Query, _ uint64) ([]byte, bool) {
	c.mu.Lock()
	e := c.lookupLocked(q)
	if e == nil || e.payload == nil {
		c.mu.Unlock()
		return nil, false
	}
	c.touchLocked(e)
	p := e.payload
	c.mu.Unlock()
	c.payloadHits.Add(1)
	return p, true
}

// SetPayload attaches a serialized response blob to the query's entry so
// later hits can skip response encoding entirely. The blob is copied.
// No-op if the entry is gone or already has a payload. The second
// argument is ignored, as Payload's is.
func (c *Cache) SetPayload(q index.Query, _ uint64, payload []byte) {
	c.mu.Lock()
	e := c.lookupLocked(q)
	if e == nil || e.payload != nil {
		c.mu.Unlock()
		return
	}
	e.payload = append([]byte(nil), payload...)
	e.bytes += int64(len(e.payload))
	c.bytes += int64(len(e.payload))
	c.evictOverflowLocked()
	c.mu.Unlock()
}

// Sub is one session's registered interest in a hot region — the
// subscription half of the multicast layer. A Sub tracks at most one
// bucket at a time (a viewer watches one neighbourhood); Set moves it
// as the viewer moves. While any Sub covers a bucket, that bucket's
// cache entry is exempt from LRU eviction, so the shared serialized
// payload stays resident for every subscriber.
//
// A Sub is owned by one session goroutine: Set and Close must not race
// each other, but they are safe against concurrent cache operations.
type Sub struct {
	c      *Cache
	k      Bucket
	active bool
	closed bool
}

// Subscribe opens a subscription with no interest registered yet; call
// Set to point it at a region.
func (c *Cache) Subscribe() *Sub { return &Sub{c: c} }

// Set registers interest in the query's bucket, releasing the
// previously watched bucket (if different). Re-setting the same bucket
// is a cheap no-op — a paused viewer re-asserting the same region every
// frame costs one quantization and one comparison, no lock.
func (s *Sub) Set(q index.Query) {
	if s.closed {
		return
	}
	k := BucketOf(q)
	if s.active && k == s.k {
		return
	}
	c := s.c
	c.mu.Lock()
	if s.active {
		c.unsubscribeLocked(s.k)
	} else {
		c.subscribers.Add(1)
	}
	c.subs[k]++
	c.mu.Unlock()
	s.k, s.active = k, true
}

// Close releases the subscription. Idempotent; a closed Sub ignores
// further Set calls.
func (s *Sub) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if !s.active {
		return
	}
	c := s.c
	c.mu.Lock()
	c.unsubscribeLocked(s.k)
	c.mu.Unlock()
	s.active = false
	c.subscribers.Add(-1)
}

// unsubscribeLocked drops one reference from a bucket. When the last
// watcher leaves, the bucket's entry rejoins the normal LRU economy;
// if the cache is over budget it is evicted on the next overflow pass.
func (c *Cache) unsubscribeLocked(k Bucket) {
	if n := c.subs[k]; n > 1 {
		c.subs[k] = n - 1
	} else {
		delete(c.subs, k)
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
	// Subscribers is the current number of open subscriptions with a
	// registered bucket (a gauge; see Subscribe).
	Subscribers int64
	// PayloadHits counts responses served from a cached serialized
	// payload (Payload returning true) — the encode passes skipped.
	PayloadHits int64
}

// Stats snapshots the counters and current occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes := len(c.m), c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Entries:     entries,
		Bytes:       bytes,
		Subscribers: c.subscribers.Load(),
		PayloadHits: c.payloadHits.Load(),
	}
}

// entryOverhead approximates the fixed per-entry footprint (struct, map
// slot, slice headers) for the byte bound.
const entryOverhead = 160

// evictOverflowLocked drops least-recently-used entries until both
// bounds hold, skipping subscribed buckets (their entries are the
// multicast working set — evicting one would make every subscriber
// recompute it). When only subscribed entries remain the bounds may be
// exceeded; subscriptions take precedence over the budget. The caller holds c.mu.
func (c *Cache) evictOverflowLocked() {
	e := c.tail
	for e != nil && (len(c.m) > c.cfg.MaxEntries || c.bytes > c.cfg.MaxBytes) {
		prev := e.prev
		if c.subs[e.k] == 0 {
			c.removeLocked(e)
			c.evictions.Add(1)
		}
		e = prev
	}
}

func (c *Cache) removeLocked(e *entry) {
	delete(c.m, e.k)
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	c.bytes -= e.bytes
}

func (c *Cache) pushLocked(e *entry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) touchLocked(e *entry) {
	if c.head == e {
		return
	}
	// Unlink, then push to the front.
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	c.pushLocked(e)
}
