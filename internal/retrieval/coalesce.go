// Query coalescing: the crowd-serving optimization. Concurrent sessions
// whose windows land on the same region at the same resolution band are
// common — viewers flock to landmarks — and each one re-runs an index
// search whose answer is identical. The coalescer singleflights those:
// the first arrival (the leader) runs the search; sessions that arrive
// while it is in flight (followers) wait and adopt the leader's result;
// a completed result lingers for a short window so near-simultaneous
// arrivals that just missed the flight still share it.
//
// Sharing is only correct while the index is provably unchanged, so the
// coalescer reuses the hot cache's two safety checks (see package
// hotcache): exact-query verification (the quantized bucket only bounds
// the table; an entry is adopted only for the identical query floats)
// and seqlock epoch validation (the leader stamps its result with the
// even epoch observed before and after its search; a follower adopts
// only while the index still reports exactly that epoch, re-checked at
// adoption time). An adopted result — ids and replayed node I/O — is
// therefore byte-identical to what the follower's own search would have
// returned. Per-session delivered-set filtering happens downstream in
// the merge loop, so two sessions sharing one index pass still receive
// exactly their own increments.
package retrieval

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
)

// CoalescerConfig tunes the gather window and the bucket quantization.
// The quantization defaults match hotcache.Config so the two layers
// agree on what "the same hot region" means.
type CoalescerConfig struct {
	// Window is how long a completed result lingers for adoption after
	// its search finishes (≤ 0 → 2ms). Within the window, sessions
	// asking the identical query at the unchanged epoch share the
	// result without waiting on each other.
	Window time.Duration
	// CellXY is the spatial quantization cell for the bucket key
	// (≤ 0 → 64 world units).
	CellXY float64
	// BandW is the value-band quantization (≤ 0 → 0.25).
	BandW float64
}

func (c CoalescerConfig) withDefaults() CoalescerConfig {
	if c.Window <= 0 {
		c.Window = 2 * time.Millisecond
	}
	if c.CellXY <= 0 {
		c.CellXY = 64
	}
	if c.BandW <= 0 {
		c.BandW = 0.25
	}
	return c
}

// ckey is the quantized bucket address, mirroring the hotcache key: one
// bucket holds at most one flight, and the exact query lives in the
// flight.
type ckey struct {
	x0, y0, x1, y1 int64
	z0, z1         int64
	w0, w1         int64
}

// flight is one in-progress or lingering shared search. done is closed
// after the result fields (ids, io, ok, epoch) are final; they are
// immutable from then on — followers read them without a lock. ids is
// flight-owned (never aliases a session's scratch). expires and next
// are guarded by the coalescer mutex.
type flight struct {
	k       ckey
	q       index.Query
	done    chan struct{}
	ids     []int64
	io      int64
	epoch   uint64
	ok      bool // result stamped at a stable even epoch; adoptable
	expires time.Time
	next    *flight // the flight that completed after this one
}

// Coalescer merges concurrent identical window searches into one index
// pass. All methods are safe for concurrent use. The zero Coalescer is
// not usable; call NewCoalescer. One Coalescer serves one index (one
// scene) — epochs from different indexes must never mix.
type Coalescer struct {
	cfg CoalescerConfig

	mu      sync.Mutex
	flights map[ckey]*flight
	// oldest and newest are the ends of the list of lingering flights in
	// completion order, which is expiry order because the window is one
	// constant. reap takes expired flights off its head, so a bucket
	// nobody lands on again gives its flight up all the same.
	oldest, newest *flight

	routed          atomic.Int64
	led             atomic.Int64
	shared          atomic.Int64
	bypassCollision atomic.Int64
	bypassStale     atomic.Int64
}

// NewCoalescer builds an empty coalescer.
func NewCoalescer(cfg CoalescerConfig) *Coalescer {
	return &Coalescer{cfg: cfg.withDefaults(), flights: make(map[ckey]*flight)}
}

func (co *Coalescer) keyOf(q index.Query) ckey {
	cell, band := co.cfg.CellXY, co.cfg.BandW
	return ckey{
		x0: cquantize(q.Region.Min.X, cell),
		y0: cquantize(q.Region.Min.Y, cell),
		x1: cquantize(q.Region.Max.X, cell),
		y1: cquantize(q.Region.Max.Y, cell),
		z0: cquantize(q.ZMin, cell),
		z1: cquantize(q.ZMax, cell),
		w0: cquantize(q.WMin, band),
		w1: cquantize(q.WMax, band),
	}
}

// do answers one sub-query through the coalescer. e0 is the index epoch
// the caller observed before entering; buf receives the ids (appended,
// like index.IntoSearcher.SearchInto). It returns the extended buffer, the node I/O to
// replay, and — when the result is known valid at a stable even epoch —
// that epoch and stable=true (the caller may then memoize it further,
// e.g. into the hot cache).
func (co *Coalescer) do(s *Server, q index.Query, e0 uint64, buf []int64, cur *index.Cursor) (ids []int64, io int64, epoch uint64, stable bool) {
	co.routed.Add(1)
	k := co.keyOf(q)
	for {
		co.mu.Lock()
		co.reap()
		f := co.flights[k]
		if f == nil {
			// Leader: publish the flight, search, stamp, release.
			f = &flight{k: k, q: q, done: make(chan struct{})}
			co.flights[k] = f
			co.mu.Unlock()
			return co.lead(s, f, e0, buf, cur)
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
			return co.selfSearch(s, q, buf, cur)
		}
		co.mu.Unlock()
		<-f.done
		// Adoption check, at adoption time: the result must have been
		// stamped stable AND the index must still be at that exact epoch —
		// otherwise a mutation landed since the leader searched and the
		// shared ids could differ from what our own search would return.
		if f.ok && s.idx.Epoch() == f.epoch {
			co.shared.Add(1)
			return append(buf, f.ids...), f.io, f.epoch, true
		}
		co.mu.Lock()
		if co.flights[k] == f {
			delete(co.flights, k)
		}
		co.mu.Unlock()
		co.bypassStale.Add(1)
		return co.selfSearch(s, q, buf, cur)
	}
}

// lead runs the leader's search and publishes the outcome. The search
// appends into the leader's own buf (the session scratch, already sized
// by earlier frames); the flight gets one exact-size copy, because
// followers hold references to f.ids after done closes and it must
// never alias a session's reusable scratch.
func (co *Coalescer) lead(s *Server, f *flight, e0 uint64, buf []int64, cur *index.Cursor) ([]int64, int64, uint64, bool) {
	start := len(buf)
	buf, f.io = s.idx.SearchInto(f.q, buf, cur)
	f.ids = slices.Clone(buf[start:])
	e1 := s.idx.Epoch()
	if e0 == e1 && e0%2 == 0 {
		f.ok, f.epoch = true, e0
	}
	close(f.done)
	co.led.Add(1)
	co.mu.Lock()
	co.reap()
	if !f.ok {
		// Unstable result (mutation overlapped the search): followers
		// already waiting will bypass; nobody new should find it.
		if co.flights[f.k] == f {
			delete(co.flights, f.k)
		}
	} else {
		f.expires = time.Now().Add(co.cfg.Window)
		if co.newest != nil {
			co.newest.next = f
		} else {
			co.oldest = f
		}
		co.newest = f
	}
	co.mu.Unlock()
	return buf, f.io, f.epoch, f.ok
}

// reap drops the lingering flights whose window has passed. A flight
// already replaced in its bucket (moved query, stale epoch, Flush) only
// leaves the list. The caller holds co.mu.
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

// selfSearch is the bypass path: an uncoalesced search with its own
// epoch stamp, so bypassed results remain memoizable.
func (co *Coalescer) selfSearch(s *Server, q index.Query, buf []int64, cur *index.Cursor) ([]int64, int64, uint64, bool) {
	e0 := s.idx.Epoch()
	ids, io := s.idx.SearchInto(q, buf, cur)
	e1 := s.idx.Epoch()
	if e0 == e1 && e0%2 == 0 {
		return ids, io, e0, true
	}
	return ids, io, 0, false
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
// Routed == Led + Shared + BypassCollision + BypassStale exactly once
// traffic quiesces: every routed sub-query took exactly one of the four
// paths.
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
	// BypassStale counts sub-queries that ran their own search because
	// the flight they waited on was unstable or its epoch had moved.
	BypassStale int64
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
		BypassStale:     co.bypassStale.Load(),
		Flights:         flights,
	}
}

// cquantize mirrors hotcache's key quantization, clamping pathological
// floats into a bucket instead of invoking undefined conversion.
func cquantize(v, cell float64) int64 {
	f := math.Floor(v / cell)
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
