// Package hotcache memoizes window-query results for hot regions of a
// scene. Continuous retrieval streams revisit the same neighbourhoods —
// many viewers orbit the same landmark, a paused client re-requests an
// identical frame — so the server repeatedly re-runs index searches whose
// answers have not changed. The cache short-circuits those: a query's
// result (the ascending id set, the node I/O it cost, and optionally the
// serialized response payload) is stored under a quantized region key
// and replayed verbatim while the index contents are unchanged.
//
// Correctness rests on two checks, both cheap:
//
//   - Exact-query verification. The key buckets queries by quantized
//     region coordinates and value band, but the entry stores the exact
//     query floats; a Get whose query differs in any coordinate is a
//     miss, never a wrong answer. Bucketing only bounds the table size.
//
//   - Epoch validation. The index versions its contents seqlock-style
//     (see index.IntoSearcher): even when quiescent, odd while a mutation is
//     in flight. An entry is stored stamped with the even epoch observed
//     both before and after the populating search, and a Get is a hit
//     only while the index still reports exactly that epoch. Any
//     completed mutation moves the counter past the stamp, so stale
//     results are unreachable — replayed responses are byte-identical
//     to what an uncached search would return.
package hotcache

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/index"
)

// Config sizes the cache and its key quantization.
type Config struct {
	// MaxEntries bounds the number of cached results (≤ 0 → 1024).
	MaxEntries int
	// MaxBytes bounds the summed size of cached id sets and payloads
	// (≤ 0 → 8 MiB). Entries are evicted least-recently-used first.
	MaxBytes int64
	// CellXY is the spatial quantization cell for the region key
	// (≤ 0 → 64 world units). Coarser cells mean fewer buckets and more
	// last-one-wins collisions; correctness is unaffected either way.
	CellXY float64
	// BandW is the value-band quantization for WMin/WMax (≤ 0 → 0.25).
	BandW float64
}

func (c Config) withDefaults() Config {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1024
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 8 << 20
	}
	if c.CellXY <= 0 {
		c.CellXY = 64
	}
	if c.BandW <= 0 {
		c.BandW = 0.25
	}
	return c
}

// key is the quantized bucket address. One bucket holds at most one
// entry (last Put wins); the exact query lives in the entry.
type key struct {
	x0, y0, x1, y1 int64
	z0, z1         int64
	w0, w1         int64
}

// entry is one cached result. ids and payload are immutable once set
// (readers copy out of them without holding the lock); list pointers and
// payload attachment are guarded by the cache mutex.
type entry struct {
	k       key
	q       index.Query
	epoch   uint64
	ids     []int64
	io      int64
	payload []byte
	bytes   int64
	pinned  bool // this entry holds page pins (see Pinner)
	prev    *entry
	next    *entry
}

// Pinner receives page residency hints for cached id sets. An
// out-of-core store (index.PagedStore) implements it: while a hot
// region's result is cached, the pages holding its coefficients are
// pinned resident, so replaying the region never faults — the hot-cache
// LRU *is* the paging policy for hot regions. Ids are passed in the
// ascending order the entry stores; every successful PinIDs is matched
// by exactly one UnpinIDs with the same ids when the entry leaves the
// cache (eviction, replacement, or epoch invalidation).
//
// PinIDs may fail when the backing storage cannot produce a page (disk
// fault, quarantined page — see index.ErrPageUnavailable). A failed
// PinIDs must leave no pins behind; the cache responds by not storing
// the entry at all, so a degraded page never anchors a hot region.
type Pinner interface {
	PinIDs(ids []int64) error
	UnpinIDs(ids []int64)
}

// SetPinner wires page pinning for cached entries (nil disables). Must
// be set before the cache starts serving; it is not synchronized with
// concurrent Get/Put.
func (c *Cache) SetPinner(p Pinner) { c.pinner = p }

// Cache is a bounded LRU of memoized query results. All methods are safe
// for concurrent use. The zero Cache is not usable; call New.
type Cache struct {
	cfg    Config
	pinner Pinner

	mu    sync.Mutex
	m     map[key]*entry
	head  *entry // most recently used
	tail  *entry // least recently used
	bytes int64
	// subs counts live subscriptions per bucket (see Subscribe). A
	// subscribed bucket's entry is exempt from LRU eviction — the
	// multicast contract is that a hot region's payload stays resident
	// while anyone is watching it — though replacement and epoch
	// invalidation still remove it (a fresh recomputation follows).
	subs map[key]int

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	pinFails      atomic.Int64
	subscribers   atomic.Int64
	subRefreshes  atomic.Int64
	payloadHits   atomic.Int64
}

// New builds an empty cache with the given bounds.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	return &Cache{cfg: cfg, m: make(map[key]*entry, cfg.MaxEntries), subs: make(map[key]int)}
}

func (c *Cache) keyOf(q index.Query) key {
	cell, band := c.cfg.CellXY, c.cfg.BandW
	return key{
		x0: quantize(q.Region.Min.X, cell),
		y0: quantize(q.Region.Min.Y, cell),
		x1: quantize(q.Region.Max.X, cell),
		y1: quantize(q.Region.Max.Y, cell),
		z0: quantize(q.ZMin, cell),
		z1: quantize(q.ZMax, cell),
		w0: quantize(q.WMin, band),
		w1: quantize(q.WMax, band),
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

// Get looks the query up. On a hit it appends the cached ids to buf and
// returns the extended buffer, the node I/O the populating search cost
// (responses must replay it to stay byte-identical to an uncached
// serve), and true. epoch is the index's current epoch as observed by
// the caller; odd epochs (mutation in flight) and stale entries miss.
func (c *Cache) Get(q index.Query, epoch uint64, buf []int64) ([]int64, int64, bool) {
	if epoch%2 != 0 {
		c.misses.Add(1)
		return buf, 0, false
	}
	k := c.keyOf(q)
	c.mu.Lock()
	e := c.m[k]
	if e == nil || e.q != q {
		c.mu.Unlock()
		c.misses.Add(1)
		return buf, 0, false
	}
	if e.epoch != epoch {
		c.removeLocked(e)
		c.mu.Unlock()
		c.invalidations.Add(1)
		c.misses.Add(1)
		return buf, 0, false
	}
	c.touchLocked(e)
	ids, io := e.ids, e.io
	c.mu.Unlock()
	c.hits.Add(1)
	return append(buf, ids...), io, true
}

// Put stores a search result. e0 and e1 are the index epochs observed
// immediately before and after the search ran; the entry is stored only
// when both are the same even value — otherwise a mutation may have
// overlapped the search and the result is silently dropped (the next
// identical query repopulates). ids is copied; the caller keeps
// ownership of its buffer.
func (c *Cache) Put(q index.Query, e0, e1 uint64, ids []int64, io int64) {
	if e0 != e1 || e0%2 != 0 {
		return
	}
	e := &entry{
		k:     c.keyOf(q),
		q:     q,
		epoch: e0,
		io:    io,
		bytes: entryOverhead + int64(len(ids))*8,
	}
	if len(ids) > 0 {
		e.ids = append([]int64(nil), ids...)
	}
	if c.pinner != nil && len(e.ids) > 0 {
		// Pin outside the cache lock (lock order is cache → pager; the
		// matching unpin in removeLocked holds the cache lock, so this
		// side must never invert it). If the entry is immediately evicted
		// below, removeLocked balances the pin right back out.
		if err := c.pinner.PinIDs(e.ids); err != nil {
			// A page backing this result is unreadable (disk fault or
			// quarantine). PinIDs left no pins behind; drop the entry so a
			// degraded page never anchors a hot region. The next identical
			// query repopulates once the page heals.
			c.pinFails.Add(1)
			return
		}
		e.pinned = true
	}
	c.mu.Lock()
	if old := c.m[e.k]; old != nil {
		// Last one wins — a bucket collision or an epoch refresh replaces
		// the incumbent and counts as an eviction.
		c.removeLocked(old)
		c.evictions.Add(1)
	}
	c.m[e.k] = e
	c.pushLocked(e)
	c.bytes += e.bytes
	if c.subs[e.k] > 0 {
		// A store into a watched bucket is one multicast refresh: however
		// many sessions subscribe to this region, the recomputation that
		// repopulates it after an epoch bump happens once.
		c.subRefreshes.Add(1)
	}
	c.evictOverflowLocked()
	c.mu.Unlock()
}

// Payload returns the serialized response blob attached to the query's
// entry, if the entry is still valid at the given epoch and a blob was
// attached. The returned slice is immutable — callers write it out
// verbatim and must not modify it.
func (c *Cache) Payload(q index.Query, epoch uint64) ([]byte, bool) {
	if epoch%2 != 0 {
		return nil, false
	}
	k := c.keyOf(q)
	c.mu.Lock()
	e := c.m[k]
	if e == nil || e.q != q || e.epoch != epoch || e.payload == nil {
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
// No-op if the entry is gone or stale, or already has a payload.
func (c *Cache) SetPayload(q index.Query, epoch uint64, payload []byte) {
	if epoch%2 != 0 {
		return
	}
	k := c.keyOf(q)
	c.mu.Lock()
	e := c.m[k]
	if e == nil || e.q != q || e.epoch != epoch || e.payload != nil {
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
// payload stays resident for every subscriber and an epoch bump costs
// one recomputation total (see Cache.Put's refresh accounting).
//
// A Sub is owned by one session goroutine: Set and Close must not race
// each other, but they are safe against concurrent cache operations.
type Sub struct {
	c      *Cache
	k      key
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
	k := s.c.keyOf(q)
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
func (c *Cache) unsubscribeLocked(k key) {
	if n := c.subs[k]; n > 1 {
		c.subs[k] = n - 1
	} else {
		delete(c.subs, k)
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	// PinFails counts entries dropped at Put time because pinning their
	// coefficient pages failed (storage fault or quarantined page).
	PinFails int64
	Entries  int
	Bytes    int64
	// Subscribers is the current number of open subscriptions with a
	// registered bucket (a gauge; see Subscribe).
	Subscribers int64
	// SubRefreshes counts stores into subscribed buckets — one per
	// multicast recomputation, however many sessions share the result.
	SubRefreshes int64
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
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		PinFails:      c.pinFails.Load(),
		Entries:       entries,
		Bytes:         bytes,
		Subscribers:   c.subscribers.Load(),
		SubRefreshes:  c.subRefreshes.Load(),
		PayloadHits:   c.payloadHits.Load(),
	}
}

// entryOverhead approximates the fixed per-entry footprint (struct, map
// slot, slice headers) for the byte bound.
const entryOverhead = 160

// evictOverflowLocked drops least-recently-used entries until both
// bounds hold, skipping subscribed buckets (their entries are the
// multicast working set — evicting one would make every subscriber
// recompute it). When only subscribed entries remain the bounds may be
// exceeded; subscriptions, like pinned pages, take precedence over the
// budget. The caller holds c.mu.
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
	if e.pinned {
		// Covers all exits: LRU eviction, replacement, and epoch
		// invalidation. The pages go back to the pager's normal LRU.
		c.pinner.UnpinIDs(e.ids)
		e.pinned = false
	}
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
