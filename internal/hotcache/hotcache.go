// Package hotcache memoizes window-query results for hot regions of a
// scene. Continuous retrieval streams revisit the same neighbourhoods —
// many viewers orbit the same landmark, a paused client re-requests an
// identical frame — so the server repeatedly re-runs index searches whose
// answers have not changed. The cache short-circuits those: a query's
// result (the ascending id set as index.Words, the node I/O it cost,
// and optionally the serialized response payload) is stored under the
// exact query and replayed verbatim. A served scene never changes after
// its build (new data arrives as a new scene, with a cache of its own),
// so a stored result stays right for as long as the entry lives.
//
// The same table shares searches in flight. Viewers flock, so sessions
// ask the identical query at once: the first puts an unfilled entry in
// the table and searches, the others wait on that entry and adopt its
// result, and the filled entry is the cached result. Per-session
// delivered-set filtering happens downstream of the table, so sessions
// sharing one index pass still receive exactly their own increments.
//
// The table is keyed by the exact query floats: a query that differs
// in any coordinate is a miss, never a wrong answer, and
// replayed responses are byte-identical to what an uncached search would
// return. MaxEntries and MaxBytes alone bound the table.
//
// Page residency is the pager's business alone: an entry holds id
// words, not pages, so a region whose page turns unreadable after it was
// stored is withheld at encode time exactly like an uncached one.
package hotcache

import (
	"math"
	"slices"
	"sync"

	"repro/internal/index"
)

// Config sizes the cache.
type Config struct {
	// MaxEntries bounds the number of cached results (≤ 0 → 1024).
	MaxEntries int
	// MaxBytes bounds the summed size of cached results and payloads
	// (≤ 0 → 8 MiB). A result costs entryOverhead (160 B) plus 16 B per
	// 64-id word its ids touch — the 612 hits of a benchmark walk frame's
	// difference slivers lie in 54 words (retrieval's
	// BenchmarkFrameSearch) — plus its payload's length. Entries are
	// evicted least-recently-used first.
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

// entry is one table entry. An unfilled entry (done != nil) is a search
// in flight: it is in the map, not in the LRU list, and holds no words
// yet. Its leader fills words and io, then clears done under the lock
// and closes the channel, so askers that waited read them without the
// lock; they are immutable from then on. List pointers, payload
// attachment and done are guarded by the cache mutex.
type entry struct {
	q       index.Query
	done    chan struct{}
	words   []index.Word
	io      int64
	payload []byte
	bytes   int64
	prev    *entry
	next    *entry
}

// Cache is the sharing table of one scene: a bounded LRU of exact-query
// results, searches in flight among them, behind one admission table.
// All methods are safe for concurrent use. The zero Cache is not
// usable; call New. One Cache serves one index — results from different
// indexes must never mix.
type Cache struct {
	cfg Config

	mu    sync.Mutex
	m     map[index.Query]*entry
	head  *entry // most recently used
	tail  *entry // least recently used
	bytes int64
	// flights counts the unfilled entries in m.
	flights int
	// subs counts live subscriptions per query (see Subscribe). A
	// subscribed query's entry is exempt from LRU eviction — the
	// multicast contract is that a hot region's payload stays resident
	// while anyone is watching it — so pinned entries are bounded by the
	// open subscriptions.
	subs map[index.Query]int
	// asked is the admission table: one fingerprint of exact query
	// floats per slot (see admitLocked).
	asked [admitSlots]uint64
	// n holds the counters and the subscriber gauge; Entries, Bytes
	// and Flights are filled in by Stats.
	n Stats
}

// New builds an empty cache with the given bounds.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	return &Cache{cfg: cfg, m: make(map[index.Query]*entry, cfg.MaxEntries), subs: make(map[index.Query]int)}
}

// Search answers q over idx through the table, appending the id words
// to buf as idx.SearchWords does, and returns the extended buffer, the
// node I/O and whether the table answered q or now holds it (the
// precondition for a response-level HotRef). Every path returns the
// ids and the node I/O of idx's own search: a stored result is replayed
// with the io its search cost.
//
//   - A filled entry is a hit.
//   - An unfilled entry is a search another session is running: the
//     asker waits for it and adopts its words and io (a miss and a share).
//   - Otherwise the query is admitted (admitLocked) or not. An admitted
//     query puts an unfilled entry in the table, searches, and fills
//     it (a miss it leads). A query asked for the first time is
//     searched directly and leaves only its fingerprint.
//
// A query with a NaN field is unequal to itself, so an entry keyed by
// it could never be found or evicted: it is searched directly too.
func (c *Cache) Search(idx index.IntoSearcher, q index.Query, buf []index.Word, cur *index.Cursor) ([]index.Word, int64, bool) {
	if q != q {
		buf, io := idx.SearchWords(q, buf, cur)
		return buf, io, false
	}
	c.mu.Lock()
	e := c.m[q]
	if e != nil && e.done == nil {
		c.touchLocked(e)
		c.n.Hits++
		words, io := e.words, e.io
		c.mu.Unlock()
		return append(buf, words...), io, true
	}
	c.n.Misses++
	if e != nil {
		c.n.Routed++
		c.n.Shared++
		done := e.done
		c.mu.Unlock()
		<-done
		return append(buf, e.words...), e.io, true
	}
	if !c.admitLocked(&q) {
		c.mu.Unlock()
		buf, io := idx.SearchWords(q, buf, cur)
		return buf, io, false
	}
	c.n.Routed++
	e = &entry{q: q, done: make(chan struct{})}
	c.m[q] = e
	c.flights++
	c.mu.Unlock()

	// The search appends into the leader's own buf (the session scratch);
	// the entry gets one exact-size copy, because waiting askers and
	// later hits read e.words and it must never alias a session's
	// reusable scratch.
	start := len(buf)
	buf, e.io = idx.SearchWords(q, buf, cur)
	e.words = slices.Clone(buf[start:])
	e.bytes = entryOverhead + int64(len(e.words))*wordBytes
	c.mu.Lock()
	done := e.done
	e.done = nil
	c.flights--
	c.n.Led++
	c.insertLocked(e)
	c.mu.Unlock()
	close(done)
	return buf, e.io, true
}

// insertLocked puts a filled entry, already in the map, at the front of
// the LRU and evicts down to the bounds. The caller holds c.mu.
func (c *Cache) insertLocked(e *entry) {
	c.pushLocked(e)
	c.bytes += e.bytes
	c.evictOverflowLocked()
}

// Payload returns the serialized response blob attached to the query's
// entry, if there is one. The returned slice is immutable — callers
// write it out verbatim and must not modify it. The second argument is
// ignored; it is kept only for bench/ (DESIGN §17).
func (c *Cache) Payload(q index.Query, _ uint64) ([]byte, bool) {
	c.mu.Lock()
	e := c.m[q]
	if e == nil || e.payload == nil {
		c.mu.Unlock()
		return nil, false
	}
	c.touchLocked(e)
	c.n.PayloadHits++
	p := e.payload
	c.mu.Unlock()
	return p, true
}

// SetPayload attaches a serialized response blob to the query's entry so
// later hits can skip response encoding entirely. The blob is copied.
// No-op if the entry is gone, unfilled or already has a payload. The
// second argument is ignored, as Payload's is.
func (c *Cache) SetPayload(q index.Query, _ uint64, payload []byte) {
	c.mu.Lock()
	e := c.m[q]
	if e == nil || e.done != nil || e.payload != nil {
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
// subscription half of the multicast layer. A Sub watches at most one
// exact query at a time (a viewer watches one window); Set moves it as
// the viewer moves. While any Sub watches a query, that query's cache
// entry is exempt from LRU eviction, so the shared serialized payload
// stays resident for every subscriber.
//
// A Sub is owned by one session goroutine: Set and Close must not race
// each other, but they are safe against concurrent cache operations.
type Sub struct {
	c      *Cache
	q      index.Query
	active bool
	closed bool
}

// Subscribe opens a subscription with no interest registered yet; call
// Set to point it at a region.
func (c *Cache) Subscribe() *Sub { return &Sub{c: c} }

// Set registers interest in the query, releasing the previously
// watched one (if different). Re-setting the same query is a cheap
// no-op — a paused viewer re-asserting the same window every frame
// costs one comparison, no lock.
func (s *Sub) Set(q index.Query) {
	if s.closed || s.active && q == s.q {
		return
	}
	c := s.c
	c.mu.Lock()
	if s.active {
		c.unsubscribeLocked(s.q)
	} else {
		c.n.Subscribers++
	}
	c.subs[q]++
	c.mu.Unlock()
	s.q, s.active = q, true
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
	c.unsubscribeLocked(s.q)
	c.n.Subscribers--
	c.mu.Unlock()
	s.active = false
}

// unsubscribeLocked drops one reference from a query. When the last
// watcher leaves, the query's entry rejoins the normal LRU economy; if
// the cache is over budget it is evicted on the next overflow pass.
func (c *Cache) unsubscribeLocked(q index.Query) {
	if n := c.subs[q]; n > 1 {
		c.subs[q] = n - 1
	} else {
		delete(c.subs, q)
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts asks a filled entry answered; Misses counts the
	// rest: first touches, waits on an unfilled entry and searches led.
	Hits   int64
	Misses int64
	// Evictions counts entries the LRU bounds dropped.
	Evictions int64
	// Entries counts filled entries, and Bytes their summed size.
	Entries int
	Bytes   int64
	// Routed counts the admitted misses: each either Led a search into
	// an unfilled entry or Shared one another session was running, so
	// Routed == Led + Shared once no search is in flight. Shared is
	// the index passes saved.
	Routed int64
	Led    int64
	Shared int64
	// Flights is the current number of unfilled entries (a gauge).
	Flights int
	// Subscribers is the current number of open subscriptions with a
	// registered query (a gauge; see Subscribe).
	Subscribers int64
	// PayloadHits counts responses served from a cached serialized
	// payload (Payload returning true) — the encode passes skipped.
	PayloadHits int64
}

// Stats snapshots the counters and current occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	st := c.n
	st.Entries, st.Bytes, st.Flights = len(c.m)-c.flights, c.bytes, c.flights
	c.mu.Unlock()
	return st
}

// entryOverhead approximates the fixed per-entry footprint (struct, map
// slot, slice headers) for the byte bound; wordBytes is the size of one
// stored index.Word.
const (
	entryOverhead = 160
	wordBytes     = 16
)

// evictOverflowLocked drops least-recently-used entries until both
// bounds hold, skipping subscribed queries (their entries are the
// multicast working set — evicting one would make every subscriber
// recompute it). When only subscribed entries remain the bounds may be
// exceeded; subscriptions take precedence over the budget. The caller holds c.mu.
func (c *Cache) evictOverflowLocked() {
	e := c.tail
	for e != nil && (len(c.m)-c.flights > c.cfg.MaxEntries || c.bytes > c.cfg.MaxBytes) {
		prev := e.prev
		if c.subs[e.q] == 0 {
			c.removeLocked(e)
			c.n.Evictions++
		}
		e = prev
	}
}

func (c *Cache) removeLocked(e *entry) {
	delete(c.m, e.q)
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

// The admission table has 4 096 slots of 8 bytes: 32 KB per cache. A
// fingerprint may sit in two of them (admitSlotsOf).
const (
	admitBits  = 12
	admitSlots = 1 << admitBits
)

// admitLocked reports whether q has been asked of this table before,
// and records that it now has. It is the table's one admission rule:
// Algorithm 1 makes a client's query the difference from its previous
// frame, so one client never repeats a sub-query and most are never
// asked by anyone again; an entry for each of them is cost without a
// taker. Only the second ask of a query pays it.
//
// What is remembered is a 64-bit fingerprint of the exact query floats,
// the table's key, in slots where each fingerprint has two: a new one
// is put in its first slot, and a fingerprint it displaces from that
// one's own first slot moves to its second, so two queries that share
// a first slot and are asked in turn both stay remembered. A collision
// — two queries with one fingerprint, or both of a fingerprint's slots
// overwritten between two asks — moves only when a result starts being
// shared, never what any ask is answered. The caller holds c.mu.
func (c *Cache) admitLocked(q *index.Query) bool {
	h := fingerprint(q)
	first, second := admitSlotsOf(h)
	if c.asked[second] == h {
		return true
	}
	old := c.asked[first]
	if old == h {
		return true
	}
	c.asked[first] = h
	// A fingerprint displaced from its first slot moves to its second;
	// one displaced from its second is forgotten.
	if oldFirst, oldSecond := admitSlotsOf(old); old != 0 && oldFirst == first {
		c.asked[oldSecond] = old
	}
	return false
}

// fingerprint hashes q's exact floats; it is never 0, the empty slot.
func fingerprint(q *index.Query) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, f := range [...]float64{
		q.Region.Min.X, q.Region.Min.Y, q.Region.Max.X, q.Region.Max.Y,
		q.ZMin, q.ZMax, q.WMin, q.WMax,
	} {
		h = (h ^ math.Float64bits(f)) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return h | 1
}

// admitSlotsOf returns fingerprint h's two admission slots, which
// differ: its top admitBits bits, and the next admitBits.
func admitSlotsOf(h uint64) (first, second uint64) {
	first = h >> (64 - admitBits)
	second = h >> (64 - 2*admitBits) & (admitSlots - 1)
	if second == first {
		second ^= 1
	}
	return first, second
}
