// Query coalescing: the crowd-serving optimization. Concurrent sessions
// whose windows land on the same region at the same resolution band are
// common — viewers flock to landmarks — and each one re-runs an index
// search whose answer is identical. The coalescer singleflights those:
// the first arrival (the leader) runs the search; sessions that arrive
// while it is in flight (followers) wait and adopt the leader's result;
// a completed result lingers for a short window so near-simultaneous
// arrivals that just missed the flight still share it.
//
// A served index never changes, so sharing needs one check, the hot
// cache's exact-query verification (see package hotcache):
// hotcache.BucketOf only bounds the table, and a flight is adopted only
// for the identical query floats. An adopted result — ids and replayed
// node I/O — is therefore byte-identical to what the follower's own
// search would have returned. Per-session delivered-set filtering
// happens downstream in the merge loop, so two sessions sharing one
// index pass still receive exactly their own increments.
package retrieval

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hotcache"
	"repro/internal/index"
)

// CoalescerConfig tunes the gather window.
type CoalescerConfig struct {
	// Window is how long a completed result lingers for adoption after
	// its search finishes (≤ 0 → 2ms). Within the window, sessions
	// asking the identical query share the result without waiting on
	// each other.
	Window time.Duration
}

func (c CoalescerConfig) withDefaults() CoalescerConfig {
	if c.Window <= 0 {
		c.Window = 2 * time.Millisecond
	}
	return c
}

// flight is one in-progress or lingering shared search. done is closed
// after the result fields (ids, io) are final; they are immutable from
// then on — followers read them without a lock. ids is flight-owned
// (never aliases a session's scratch). expires and next are guarded by
// the coalescer mutex.
type flight struct {
	k       hotcache.Bucket
	q       index.Query
	done    chan struct{}
	ids     []int64
	io      int64
	expires time.Time
	next    *flight // the flight that completed after this one
}

// Coalescer merges concurrent identical window searches into one index
// pass. All methods are safe for concurrent use. The zero Coalescer is
// not usable; call NewCoalescer. One Coalescer serves one index (one
// scene) — results from different indexes must never mix.
type Coalescer struct {
	cfg CoalescerConfig

	mu      sync.Mutex
	flights map[hotcache.Bucket]*flight
	// oldest and newest are the ends of the list of lingering flights in
	// completion order, which is expiry order because the window is one
	// constant. reap takes expired flights off its head, so a bucket
	// nobody lands on again gives its flight up all the same.
	oldest, newest *flight

	routed          atomic.Int64
	led             atomic.Int64
	shared          atomic.Int64
	bypassCollision atomic.Int64
}

// NewCoalescer builds an empty coalescer.
func NewCoalescer(cfg CoalescerConfig) *Coalescer {
	return &Coalescer{cfg: cfg.withDefaults(), flights: make(map[hotcache.Bucket]*flight)}
}

// do answers one sub-query over idx through the coalescer. buf receives
// the ids (appended, like index.IntoSearcher.SearchInto). It returns the
// extended buffer and the node I/O to replay.
func (co *Coalescer) do(idx index.IntoSearcher, q index.Query, buf []int64, cur *index.Cursor) ([]int64, int64) {
	co.routed.Add(1)
	k := hotcache.BucketOf(q)
	for {
		co.mu.Lock()
		co.reap()
		f := co.flights[k]
		if f == nil {
			// Leader: publish the flight, search, release.
			f = &flight{k: k, q: q, done: make(chan struct{})}
			co.flights[k] = f
			co.mu.Unlock()
			return co.lead(idx, f, buf, cur)
		}
		completed := false
		select {
		case <-f.done:
			completed = true
		default:
		}
		if completed && f.q != q {
			// The lingering result answers a query the crowd has moved
			// past (a moving flock re-lands in the same bucket every step
			// with fresh floats — the stale flight must not squat on the
			// bucket). Evict it and retry the loop as a prospective leader.
			delete(co.flights, k)
			co.mu.Unlock()
			continue
		}
		if f.q != q {
			// In-flight bucket collision with a different exact query:
			// never wrong, just unshareable — waiting would adopt the
			// wrong answer. Run our own search.
			co.mu.Unlock()
			co.bypassCollision.Add(1)
			return idx.SearchInto(q, buf, cur)
		}
		co.mu.Unlock()
		<-f.done
		co.shared.Add(1)
		return append(buf, f.ids...), f.io
	}
}

// lead runs the leader's search and publishes the outcome. The search
// appends into the leader's own buf (the session scratch, already sized
// by earlier frames); the flight gets one exact-size copy, because
// followers hold references to f.ids after done closes and it must
// never alias a session's reusable scratch.
func (co *Coalescer) lead(idx index.IntoSearcher, f *flight, buf []int64, cur *index.Cursor) ([]int64, int64) {
	start := len(buf)
	buf, f.io = idx.SearchInto(f.q, buf, cur)
	f.ids = slices.Clone(buf[start:])
	close(f.done)
	co.led.Add(1)
	co.mu.Lock()
	co.reap()
	f.expires = time.Now().Add(co.cfg.Window)
	if co.newest != nil {
		co.newest.next = f
	} else {
		co.oldest = f
	}
	co.newest = f
	co.mu.Unlock()
	return buf, f.io
}

// reap drops the lingering flights whose window has passed. A flight
// already replaced in its bucket (moved query, Flush) only leaves the
// list. The caller holds co.mu.
func (co *Coalescer) reap() {
	if co.oldest == nil {
		return
	}
	now := time.Now()
	for f := co.oldest; f != nil && now.After(f.expires); f = co.oldest {
		if co.flights[f.k] == f {
			delete(co.flights, f.k)
		}
		if co.oldest = f.next; co.oldest == nil {
			co.newest = nil
		}
	}
}

// Flush drops every completed lingering flight, ending their adoption
// windows immediately. In-flight searches are untouched (their waiting
// followers still adopt). Benchmarks use it to delimit sharing scopes
// deterministically; servers never need to call it — flights age out on
// their own.
func (co *Coalescer) Flush() {
	co.mu.Lock()
	for k, f := range co.flights {
		select {
		case <-f.done:
			delete(co.flights, k)
		default:
		}
	}
	co.oldest, co.newest = nil, nil
	co.mu.Unlock()
}

// CoalescerStats is a point-in-time snapshot of the coalescer counters.
// Routed == Led + Shared + BypassCollision exactly once traffic
// quiesces: every routed sub-query took exactly one of the three paths.
type CoalescerStats struct {
	// Routed counts sub-queries that entered the coalescer.
	Routed int64
	// Led counts searches actually executed against the index by a
	// flight leader.
	Led int64
	// Shared counts sub-queries answered by adopting another session's
	// flight — the index passes saved.
	Shared int64
	// BypassCollision counts sub-queries that ran their own search
	// because their bucket held a flight for a different exact query.
	BypassCollision int64
	// Flights is the current number of in-flight or lingering entries.
	Flights int
}

// Stats snapshots the counters and current flight-table occupancy.
func (co *Coalescer) Stats() CoalescerStats {
	co.mu.Lock()
	co.reap()
	flights := len(co.flights)
	co.mu.Unlock()
	return CoalescerStats{
		Routed:          co.routed.Load(),
		Led:             co.led.Load(),
		Shared:          co.shared.Load(),
		BypassCollision: co.bypassCollision.Load(),
		Flights:         flights,
	}
}
