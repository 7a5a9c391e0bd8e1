package engine

import (
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/retrieval"
)

// Resume bounds a Registry gives each scene's session table unless
// Registry.SetResumeCache sets others.
const (
	DefaultResumeCapacity = 1024
	DefaultResumeTTL      = 2 * time.Minute
)

// Lineage is one client's session lineage: the delivered set it has
// been sent, Seq, the responses sent over its life, and LastIDs, the
// deliveries of response Seq — the candidates a resume rolls back when
// the client never applied that final frame. A lineage outlives the
// connections that serve it: a drop parks it and a resume hands it to
// the next connection.
type Lineage struct {
	Session *retrieval.Session
	Seq     int64
	LastIDs []int64
	// Restored marks a lineage rebuilt from the session journal or
	// shipped by a drain; the wire server counts the resume that takes
	// it (the proto.resumes_restored row) and clears the flag.
	Restored bool
}

// lineageState is where a lineage stands in its scene's table. A
// lineage the table no longer holds is gone: released to the scene's
// pool, or discarded.
type lineageState uint8

const (
	gone   lineageState = iota
	live                // bound to a connection, which the lineage's conn severs
	parked              // journaled, takeable by a resume until it expires
)

// tableEntry is one token's row in a session table.
type tableEntry struct {
	token   uint64
	lin     *Lineage
	state   lineageState
	started bool          // live: a request or resume has served a frame
	conn    io.Closer     // live: severs the connection
	left    chan struct{} // live: made by a waiter, closed when the lineage leaves live
	expires time.Time     // parked
}

// Sessions is one scene's session table: every lineage of the scene,
// by token, in exactly one state (live, parked or gone). Each method is
// one transition, made whole under the table's one lock, journal
// records included: a park or import record is written before the
// lineage can be taken, and a take's tombstone before the lineage is
// handed out. A transition that must wait for a connection to leave —
// a resume taking over a live token, a sever — waits with the lock
// released.
type Sessions struct {
	scene string
	srv   *retrieval.Server

	mu       sync.Mutex
	capacity int
	ttl      time.Duration
	journal  *SessionJournal
	entries  map[uint64]*tableEntry
	order    []*tableEntry // parked entries in park order, for eviction; may hold entries since taken
	nLive    int
	nParked  int
	released int              // lineages released to the scene's pool
	now      func() time.Time // replaces the wall clock when set (tests)
}

func newSessions(scene string, srv *retrieval.Server) *Sessions {
	return &Sessions{scene: scene, srv: srv, capacity: DefaultResumeCapacity, ttl: DefaultResumeTTL,
		entries: make(map[uint64]*tableEntry)}
}

func (t *Sessions) clock() time.Time {
	if t.now != nil {
		return t.now()
	}
	return time.Now()
}

// Greet binds a new live lineage to a connection under token, its
// session drawn from the scene's pool and its LastIDs on lastIDs'
// array; conn severs the connection. A scene select is a Bye on the
// scene left and a Greet on the scene chosen, under the same token.
func (t *Sessions) Greet(token uint64, conn io.Closer, lastIDs []int64) *Lineage {
	l := &Lineage{Session: retrieval.NewSession(t.srv), LastIDs: lastIDs[:0]}
	t.mu.Lock()
	t.entries[token] = &tableEntry{token: token, lin: l, state: live, conn: conn}
	t.nLive++
	t.mu.Unlock()
	return l
}

// Start marks token's live lineage started by its first request: from
// then on a drop parks it. Later requests need not call it.
func (t *Sessions) Start(token uint64) {
	t.mu.Lock()
	if e := t.entries[token]; e != nil && e.state == live {
		e.started = true
	}
	t.mu.Unlock()
}

// Bye ends token's live lineage with a goodbye: it is gone, its session
// released to the scene's pool.
func (t *Sessions) Bye(token uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.leave(token); e != nil {
		defer e.wake()
		delete(t.entries, token)
		t.release(e.lin)
	}
}

// Drop ends token's live lineage any other way — the peer vanished or
// failed, a timeout, a sever, the server's Close. A started lineage is
// parked, journaled, for TTL; one that never served a frame has nothing
// worth resuming (a probe, a port scanner) and is discarded, as is
// every lineage once resumption is disabled or the scene removed (the
// table's capacity is then 0).
func (t *Sessions) Drop(token uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.leave(token)
	if e == nil {
		return
	}
	defer e.wake()
	if !e.started || t.capacity <= 0 {
		delete(t.entries, token)
		return
	}
	now := t.clock()
	t.evict(now)
	expires := now.Add(t.ttl)
	var record []byte
	if t.journal != nil {
		record = encodePark(token, t.scene, e.lin, expires)
	}
	t.park(e, expires, record)
}

// park makes e parked until expires, journaling its record (nil: the
// journal holds it already) before it can be taken.
func (t *Sessions) park(e *tableEntry, expires time.Time, record []byte) {
	t.journal.park(e.token, record)
	e.state, e.expires = parked, expires
	t.entries[e.token] = e
	t.nParked++
	t.order = append(t.order, e)
}

// leave takes token's entry out of the live state, for the caller to
// set the next one and then wake whoever waits for that; nil when token
// is not live.
func (t *Sessions) leave(token uint64) *tableEntry {
	e := t.entries[token]
	if e == nil || e.state != live {
		return nil
	}
	e.state, e.conn = gone, nil
	t.nLive--
	return e
}

// wake tells a resume or sever waiting on the entry that it has left
// live and reached its next state, journal record included.
func (e *tableEntry) wake() {
	if e.left != nil {
		close(e.left)
	}
}

// Resume hands the connection live under self the lineage parked under
// token, rolled back to the client's applied: a client one response
// behind has that response's deliveries forgotten, so the next frame
// re-sends them; one further behind misses. A token still live on
// another connection — one whose drop the server has not noticed yet —
// is severed first, and the resume waits up to wait for its park. The
// taken lineage is tombstoned; an expired or stale one is discarded.
// On a hit the lineage self held is released and the returned one is
// self's, started; on a miss self keeps what it had.
func (t *Sessions) Resume(self, token uint64, applied int64, wait time.Duration) (*Lineage, bool) {
	t.mu.Lock()
	if e := t.entries[token]; e != nil && e.state == live && token != self {
		if e.left == nil {
			e.left = make(chan struct{})
		}
		conn, left := e.conn, e.left
		t.mu.Unlock()
		conn.Close()
		await([]chan struct{}{left}, wait)
		t.mu.Lock()
	}
	defer t.mu.Unlock()
	e, me := t.entries[token], t.entries[self]
	if e == nil || e.state != parked || me == nil || me.state != live {
		return nil, false
	}
	t.take(e)
	l := e.lin
	if !t.clock().Before(e.expires) {
		return nil, false
	}
	switch applied {
	case l.Seq:
	case l.Seq - 1:
		l.Session.Forget(l.LastIDs)
		l.Seq--
	default:
		return nil, false
	}
	l.LastIDs = l.LastIDs[:0]
	t.release(me.lin)
	me.lin, me.started = l, true
	return l, true
}

// Sever closes the connection of every live lineage of the scene and
// returns once each has left live — parked if it had started, else
// discarded — or once wait runs out. It reports how many started
// lineages it severed and whether every one left in time.
func (t *Sessions) Sever(wait time.Duration) (severed int, ok bool) {
	t.mu.Lock()
	var conns []io.Closer
	var lefts []chan struct{}
	for _, e := range t.entries {
		if e.state != live {
			continue
		}
		if e.left == nil {
			e.left = make(chan struct{})
		}
		conns, lefts = append(conns, e.conn), append(lefts, e.left)
		if e.started {
			severed++
		}
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return severed, await(lefts, wait)
}

// await waits up to wait in all for every channel to close and reports
// whether all did.
func await(lefts []chan struct{}, wait time.Duration) bool {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for _, left := range lefts {
		select {
		case <-left:
		case <-timer.C:
			return false
		}
	}
	return true
}

// take removes a parked entry, tombstoning it in the journal.
func (t *Sessions) take(e *tableEntry) {
	delete(t.entries, e.token)
	e.state = gone
	t.nParked--
	t.journal.take(e.token)
}

// release hands a lineage's session back to the scene's pool.
func (t *Sessions) release(l *Lineage) {
	t.released++
	l.Session.Release()
}

// evict makes room for one more parked lineage: expired lineages go,
// and then the oldest while the table is full. Both are discarded.
func (t *Sessions) evict(now time.Time) {
	for len(t.order) > 0 {
		e := t.order[0]
		if e.state == parked && now.Before(e.expires) && t.nParked < t.capacity {
			break
		}
		t.order = t.order[1:]
		if e.state == parked {
			t.take(e)
		}
	}
	if len(t.order) > 2*t.nParked+64 {
		t.order = slices.DeleteFunc(t.order, func(e *tableEntry) bool { return e.state != parked })
	}
}

// adopt parks a lineage that arrives whole: a journal record restored
// after a restart (payload nil: the journal already holds it) or a
// session a drain shipped (payload is its record, journaled before the
// lineage can be taken). It keeps its token and original expiry and is
// flagged Restored. A full, disabled or removed scene's table, a token
// it already holds and an expired record are refused.
func (t *Sessions) adopt(p parkRecord, payload []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	expires := time.Unix(0, p.expires)
	if t.nParked >= t.capacity || t.entries[p.token] != nil || !t.clock().Before(expires) {
		return false
	}
	t.park(&tableEntry{token: p.token, lin: &Lineage{
		Session: retrieval.RestoreSession(t.srv, p.delivered), Seq: p.seq, LastIDs: p.lastIDs, Restored: true,
	}}, expires, payload)
	return true
}

// export encodes every unexpired parked lineage in the journal's park
// format, the records a drain ships.
func (t *Sessions) export() [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	var out [][]byte
	for token, e := range t.entries {
		if e.state == parked && now.Before(e.expires) {
			out = append(out, encodePark(token, t.scene, e.lin, e.expires))
		}
	}
	return out
}

// setBounds re-bounds the table: parked lineages keep their expiry
// (the next park evicts down to a smaller capacity), unless capacity ≤ 0
// disables resumption, which discards them, tombstoned, and refuses
// later parks. Removing the scene does that too, so no record outlives
// it in the journal. It returns the count discarded.
func (t *Sessions) setBounds(capacity int, ttl time.Duration) (purged int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.capacity, t.ttl = capacity, ttl
	if capacity > 0 {
		return 0
	}
	purged = t.nParked
	for _, e := range t.order {
		if e.state == parked {
			t.take(e)
		}
	}
	t.order = t.order[:0]
	return purged
}

func (t *Sessions) setJournal(j *SessionJournal) {
	t.mu.Lock()
	t.journal = j
	t.mu.Unlock()
}

// Live reports how many lineages of the scene are bound to a
// connection.
func (t *Sessions) Live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nLive
}

// Parked reports how many lineages of the scene are parked, expired
// ones included until evicted.
func (t *Sessions) Parked() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nParked
}
