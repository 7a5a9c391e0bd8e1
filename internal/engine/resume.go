package engine

import (
	"sync"
	"time"

	"repro/internal/retrieval"
)

// Resume-cache bounds a Registry gives each scene unless
// Registry.SetResumeCache sets others.
const (
	DefaultResumeCapacity = 1024
	DefaultResumeTTL      = 2 * time.Minute
)

// ResumeEntry is the state of a recently closed session, held so a
// reconnecting client can continue incremental retrieval instead of
// re-fetching its whole window. Seq counts the responses sent over the
// session's lifetime; LastIDs are the deliveries of response Seq, the
// candidates a resume handshake may roll back when the client never
// applied that final frame.
type ResumeEntry struct {
	Session *retrieval.Session
	Seq     int64
	LastIDs []int64
	// Restored marks an entry rebuilt from the durable session journal
	// after a restart; the wire server counts the resume that consumes
	// it (the proto.resumes_restored row) and clears the flag.
	Restored bool
	expires  time.Time
}

// ResumeCache is a bounded TTL cache of closed sessions keyed by token.
// Each scene owns one: a token minted while a client was attached to
// scene A can only resume scene A's delivered-set. Put and Take are
// mutex-guarded; both run off the request hot path (connection teardown
// and handshake respectively).
type ResumeCache struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration
	entries  map[uint64]*ResumeEntry
	order    []uint64 // insertion (≈ close-time) order for eviction
	// journal, when attached, durably mirrors the cache: parks are
	// appended on Put, tombstones on Take and eviction. Journal calls
	// run outside the cache mutex (they fsync).
	journal *SessionJournal
	scene   string
}

// attachJournal mirrors this cache into a durable session journal (nil
// detaches). The scene name keys the journal's records so a restore
// re-parks each session in the right scene.
func (c *ResumeCache) attachJournal(j *SessionJournal, scene string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j
	c.scene = scene
}

// NewResumeCache creates a cache holding at most capacity sessions
// (0 disables resumption) for at most ttl.
func NewResumeCache(capacity int, ttl time.Duration) *ResumeCache {
	return &ResumeCache{
		capacity: capacity,
		ttl:      ttl,
		entries:  make(map[uint64]*ResumeEntry),
	}
}

// Put stashes a closed session. With capacity 0 (or a zero token) the
// entry is dropped.
func (c *ResumeCache) Put(token uint64, e *ResumeEntry) {
	if c == nil || c.capacity <= 0 || token == 0 {
		return
	}
	e.expires = time.Now().Add(c.ttl)
	c.mu.Lock()
	j, scene := c.journal, c.scene
	c.mu.Unlock()
	// Journal the park while e is still the caller's alone: once it is in
	// the map a resume may take it and change it, and its tombstone must
	// follow the park.
	j.RecordPark(token, scene, e)
	c.mu.Lock()
	// Evict expired entries first, then the oldest live one if still full.
	// order may hold tokens already consumed by Take; skip them.
	var evicted []uint64
	for len(c.order) > 0 {
		t := c.order[0]
		old, ok := c.entries[t]
		if ok && time.Now().Before(old.expires) && len(c.entries) < c.capacity {
			break
		}
		c.order = c.order[1:]
		if ok {
			evicted = append(evicted, t)
		}
		delete(c.entries, t)
	}
	c.entries[token] = e
	c.order = append(c.order, token)
	c.mu.Unlock()
	for _, t := range evicted {
		j.RecordTake(t)
	}
}

// setBounds re-bounds the cache in place: parked sessions keep their
// expiry and stay (the next Put evicts down to a smaller capacity),
// unless capacity ≤ 0 disables the cache, which purges them.
func (c *ResumeCache) setBounds(capacity int, ttl time.Duration) {
	c.mu.Lock()
	c.capacity, c.ttl = capacity, ttl
	c.mu.Unlock()
	if capacity <= 0 {
		c.Purge()
	}
}

// putRestored re-parks a journal-recovered session under its original
// token and original expiry, without journaling it again (it is already
// the journal's live state). Restores never evict: a full cache drops
// the restore instead. Reports whether the entry was parked.
func (c *ResumeCache) putRestored(token uint64, e *ResumeEntry, expires time.Time) bool {
	if c == nil || c.capacity <= 0 || token == 0 || time.Now().After(expires) {
		return false
	}
	e.expires = expires
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= c.capacity {
		return false
	}
	if _, dup := c.entries[token]; dup {
		return false
	}
	c.entries[token] = e
	c.order = append(c.order, token)
	return true
}

// Take removes and returns the session for token, if present and fresh.
func (c *ResumeCache) Take(token uint64) (*ResumeEntry, bool) {
	if c == nil || token == 0 {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[token]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	delete(c.entries, token)
	fresh := !time.Now().After(e.expires)
	j := c.journal
	c.mu.Unlock()
	if j != nil {
		// The token is consumed either way — resumed or expired — so the
		// journal tombstones it either way.
		j.RecordTake(token)
	}
	if !fresh {
		return nil, false
	}
	return e, true
}

// Len reports the number of cached sessions (expired entries included
// until evicted).
func (c *ResumeCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
