package engine

import (
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/retrieval"
	"repro/internal/stats"
)

// nopConn stands in for a connection whose sever the test plays itself.
type nopConn struct{}

func (nopConn) Close() error { return nil }

// serve greets token on sc and starts its lineage, as a connection's
// first request does.
func serve(sc *Scene, token uint64) *Lineage {
	l := sc.Sessions.Greet(token, nopConn{}, nil)
	sc.Sessions.Start(token)
	return l
}

// take resumes token's parked lineage, in sync with its sequence, on a
// fresh connection, which stays live holding it.
func take(sc *Scene, token uint64) (*Lineage, bool) {
	self := token | 1<<62
	sc.Sessions.Greet(self, nopConn{}, nil)
	sc.Sessions.mu.Lock()
	var seq int64
	if e := sc.Sessions.entries[token]; e != nil {
		seq = e.lin.Seq
	}
	sc.Sessions.mu.Unlock()
	return sc.Sessions.Resume(self, token, seq, 0)
}

// The lifecycle model's scenes share these retrieval servers, built
// once: 10 buildings each, so a lineage that has seen its whole scene
// holds 2 580 delivered coefficients. Each seed covers from 3 buildings
// up what it covers at 20 (below 3 the concurrent seed's park records
// no longer outgrow the journal's bound, so its compaction goes
// untested), but a park journaled after the table's lock is caught at
// seeds 0 and 2 under -race as often as at 20 only from 10: the window
// such a race opens is the park record's encode, which grows with the
// lineage's delivered set.
var lifecycleScenes struct {
	once    sync.Once
	servers map[string]*retrieval.Server
}

func lifecycleServers(t testing.TB) map[string]*retrieval.Server {
	lifecycleScenes.once.Do(func() {
		lifecycleScenes.servers = map[string]*retrieval.Server{}
		for i, name := range modelScenes {
			store := testStore(t, 10, int64(i+1))
			srv := retrieval.NewServer(store, index.NewSharded(store, index.XYW, index.ShardedConfig{}))
			srv.SetStats(nil)
			lifecycleScenes.servers[name] = srv
		}
	})
	return lifecycleScenes.servers
}

var modelScenes = []string{"city", "park"}

// frame serves one request on l as the wire server does: the whole
// scene's window, counted and kept as the rollback candidates.
func frame(l *Lineage, srv *retrieval.Server) {
	subs := []retrieval.SubQuery{{Region: srv.Store().Bounds().XY(), WMin: 0, WMax: 1}}
	l.Seq++
	l.LastIDs = append(l.LastIDs[:0], l.Session.RetrieveScratch(subs).IDs...)
}

// The model's table bounds: a capacity small enough to evict, a TTL the
// expiry event steps past.
const (
	modelCapacity = 3
	modelTTL      = 10 * time.Second
)

// lifecycleRig is a registry of the two model scenes over a session
// journal, its tables on a clock the test sets.
type lifecycleRig struct {
	path   string
	reg    *Registry
	j      *SessionJournal
	tables map[string]*Sessions // every scene's table, removed ones too
	clock  atomic.Int64         // unix nanoseconds
}

func newLifecycleRig(t *testing.T) *lifecycleRig {
	r := &lifecycleRig{path: filepath.Join(t.TempDir(), SessionJournalFile)}
	r.clock.Store(time.Unix(1_000_000, 0).UnixNano())
	r.open(t, nil)
	return r
}

func (r *lifecycleRig) now() time.Time { return time.Unix(0, r.clock.Load()) }

// open builds a fresh registry over the journal at r.path, skipping the
// removed scenes, and restores it: a boot.
func (r *lifecycleRig) open(t *testing.T, removed map[string]bool) int {
	j, err := OpenSessionJournal(r.path, 0, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	r.j, r.reg, r.tables = j, NewRegistry(), map[string]*Sessions{}
	for _, name := range modelScenes {
		if removed[name] {
			continue
		}
		sc, err := r.reg.AddScene(name, lifecycleServers(t)[name], 3)
		if err != nil {
			t.Fatal(err)
		}
		sc.Sessions.now = r.now
		r.tables[name] = sc.Sessions
	}
	r.reg.SetResumeCache(modelCapacity, modelTTL)
	r.reg.SetSessionJournal(j)
	return j.Restore(r.reg)
}

// check verifies what holds after every event, sequential or not: each
// token sits in one table in one state, the counts agree with the rows,
// the journal's live tokens are exactly the parked ones, and no two held
// lineages share a session (a session released twice, or released while
// parked, comes back out of the pool to a second lineage). It returns
// every held token's row.
func (r *lifecycleRig) check(t *testing.T) map[uint64]*tableEntry {
	t.Helper()
	rows := map[uint64]*tableEntry{}
	parkedSet := map[uint64]bool{}
	sessions := map[*retrieval.Session]uint64{}
	for name, tbl := range r.tables {
		tbl.mu.Lock()
		var nLive, nParked int
		for token, e := range tbl.entries {
			if rows[token] != nil {
				t.Fatalf("token %d held by two tables", token)
			}
			rows[token] = e
			switch e.state {
			case live:
				nLive++
			case parked:
				nParked++
				parkedSet[token] = true
			default:
				t.Fatalf("scene %s holds token %d in state %d", name, token, e.state)
			}
			if other, dup := sessions[e.lin.Session]; dup {
				t.Fatalf("tokens %d and %d hold one session", other, token)
			}
			sessions[e.lin.Session] = token
		}
		if nLive != tbl.nLive || nParked != tbl.nParked {
			t.Fatalf("scene %s counts %d live and %d parked, its rows %d and %d", name, tbl.nLive, tbl.nParked, nLive, nParked)
		}
		tbl.mu.Unlock()
	}
	r.j.mu.Lock()
	defer r.j.mu.Unlock()
	if len(r.j.live) != len(parkedSet) {
		t.Fatalf("journal holds %d live parks, the tables %d parked lineages", len(r.j.live), len(parkedSet))
	}
	for token := range r.j.live {
		if !parkedSet[token] {
			t.Fatalf("journal holds token %d live, which no table has parked", token)
		}
	}
	return rows
}

// released sums the tables' releases.
func (r *lifecycleRig) released() int {
	n := 0
	for _, tbl := range r.tables {
		tbl.mu.Lock()
		n += tbl.released
		tbl.mu.Unlock()
	}
	return n
}

// modelLineage is the model's row for one token.
type modelLineage struct {
	scene   string
	state   lineageState
	started bool
	seq     int64
	held    int // delivered coefficients
	last    int // of them, delivered by the last frame
	expires time.Time
	lin     *Lineage // nil for a lineage rebuilt by a restore
}

// lifecycleModel is the reference: each token's state, park order per
// scene (for eviction), the removed scenes and the releases the tables
// must have made.
type lifecycleModel struct {
	t        *testing.T
	r        *lifecycleRig
	rows     map[uint64]*modelLineage
	order    map[string][]uint64
	removed  map[string]bool
	releases int
	dead     int // releases made by the tables of earlier boots
	minted   uint64
	mu       sync.Mutex     // held by a severed connection's drop
	handlers sync.WaitGroup // severed connections' drops
}

// modelConn is a model connection: severing it is its handler's drop,
// on a goroutine of the handler's own. The drops of one sever take the
// model's lock across the table's transition, so the model sees them in
// the table's order; the test waits for them (handlers) before it reads
// the model.
type modelConn struct {
	m     *lifecycleModel
	token uint64
}

func (c modelConn) Close() error {
	c.m.handlers.Add(1)
	go func() {
		defer c.m.handlers.Done()
		c.m.mu.Lock()
		defer c.m.mu.Unlock()
		c.m.drop(c.token)
	}()
	return nil
}

func (m *lifecycleModel) table(token uint64) *Sessions { return m.r.tables[m.rows[token].scene] }

func (m *lifecycleModel) greet(scene string) {
	if m.removed[scene] {
		return
	}
	m.minted++
	l := m.r.tables[scene].Greet(m.minted, modelConn{m, m.minted}, nil)
	m.rows[m.minted] = &modelLineage{scene: scene, state: live, lin: l}
}

func (m *lifecycleModel) selectScene(token uint64, scene string) {
	ml := m.rows[token]
	if m.removed[scene] || ml.started {
		return
	}
	m.table(token).Bye(token)
	m.releases++
	ml.scene, ml.lin = scene, m.r.tables[scene].Greet(token, modelConn{m, token}, nil)
}

func (m *lifecycleModel) request(token uint64) {
	ml := m.rows[token]
	if !ml.started {
		m.table(token).Start(token)
		ml.started = true
	}
	frame(ml.lin, lifecycleServers(m.t)[ml.scene])
	ml.seq++
	ml.last = len(ml.lin.LastIDs)
	ml.held += ml.last
}

func (m *lifecycleModel) bye(token uint64) {
	m.table(token).Bye(token)
	delete(m.rows, token)
	m.releases++
}

// drop is a drop, an idle or frame timeout, a failure or a sever: all
// one transition, Sessions.Drop.
func (m *lifecycleModel) drop(token uint64) {
	ml := m.rows[token]
	if ml == nil || ml.state != live {
		return
	}
	m.table(token).Drop(token)
	if !ml.started || m.removed[ml.scene] {
		delete(m.rows, token)
		return
	}
	now := m.r.now()
	order := m.order[ml.scene]
	for len(order) > 0 {
		o := m.rows[order[0]]
		if o != nil && o.state == parked && now.Before(o.expires) && m.parked(ml.scene) < modelCapacity {
			break
		}
		if o != nil && o.state == parked {
			delete(m.rows, order[0])
		}
		order = order[1:]
	}
	ml.state, ml.expires = parked, now.Add(modelTTL)
	m.order[ml.scene] = append(order, token)
}

func (m *lifecycleModel) parked(scene string) int {
	n := 0
	for _, ml := range m.rows {
		if ml.scene == scene && ml.state == parked {
			n++
		}
	}
	return n
}

// resume has self resume token at applied: a hit, a rollback, a stale
// sequence, a take-over of a live token (severed, so dropped first) or
// a miss.
func (m *lifecycleModel) resume(self, token uint64, applied int64) {
	scene := m.rows[self].scene
	mt := m.rows[token]
	takeOver := mt != nil && mt.scene == scene && mt.state == live && token != self
	got, ok := m.table(self).Resume(self, token, applied, time.Second)
	m.handlers.Wait()
	if takeOver && m.rows[token] != nil && m.rows[token].state == live {
		m.t.Fatalf("resume of token %d, live on another connection, did not sever it", token)
	}
	want := false
	if mt != nil && mt.scene == scene && mt.state == parked {
		delete(m.rows, token)
		want = m.r.now().Before(mt.expires) && (applied == mt.seq || applied == mt.seq-1)
	}
	if ok != want {
		m.t.Fatalf("resume of token %d at %d by %d: hit %v, want %v", token, applied, self, ok, want)
	}
	if !ok {
		return
	}
	if (mt.lin != nil && got != mt.lin) || got.Seq != applied {
		m.t.Fatalf("resume of token %d handed out a lineage at seq %d, want the parked one at %d", token, got.Seq, applied)
	}
	m.releases++
	ms := m.rows[self]
	ms.started, ms.seq, ms.lin, ms.held, ms.last = true, applied, got, mt.held, 0
	if applied < mt.seq {
		ms.held -= mt.last
	}
}

func (m *lifecycleModel) sever(scene string) {
	if m.r.tables[scene] == nil {
		return // removed before a restart
	}
	want := 0
	for _, ml := range m.rows {
		if ml.scene == scene && ml.state == live && ml.started {
			want++
		}
	}
	n, ok := m.r.tables[scene].Sever(time.Second)
	// Every severed lineage has reached its next state, journal record
	// included, by the time Sever returns; the handlers may still be
	// finishing.
	m.r.j.mu.Lock()
	journaled := len(m.r.j.live)
	m.r.j.mu.Unlock()
	m.handlers.Wait()
	if parked := m.parked(modelScenes[0]) + m.parked(modelScenes[1]); journaled != parked {
		m.t.Fatalf("sever of %s returned with %d parks journaled, %d once its connections' handlers finished", scene, journaled, parked)
	}
	if n != want || !ok {
		m.t.Fatalf("sever of %s: %d severed (all left: %v), want %d", scene, n, ok, want)
	}
	for _, ml := range m.rows {
		if ml.scene == scene && ml.state == live {
			m.t.Fatalf("a lineage of %s is live after its sever", scene)
		}
	}
}

func (m *lifecycleModel) remove(scene string) {
	if m.removed[scene] {
		return
	}
	n, err := m.r.reg.RemoveScene(scene)
	if err != nil {
		m.t.Fatal(err)
	}
	if want := m.parked(scene); n != want {
		m.t.Fatalf("removing %s purged %d, want %d", scene, n, want)
	}
	for token, ml := range m.rows {
		if ml.scene == scene && ml.state == parked {
			delete(m.rows, token)
		}
	}
	m.removed[scene], m.order[scene] = true, nil
}

// restart kills the journal and boots a fresh registry from it: live
// lineages die with the process, parked ones come back restored unless
// expired.
func (m *lifecycleModel) restart() {
	m.dead += m.r.released()
	m.r.j.Kill()
	m.r.j.Close()
	restored := m.r.open(m.t, m.removed)
	now := m.r.now()
	want := 0
	for token, ml := range m.rows {
		if ml.state == live || !now.Before(ml.expires) {
			delete(m.rows, token)
			continue
		}
		ml.lin = nil
		want++
	}
	if restored != want {
		m.t.Fatalf("restore parked %d lineages, want %d", restored, want)
	}
	// A restore parks in the journal's map order, which the table's
	// eviction order now follows.
	for scene, tbl := range m.r.tables {
		m.order[scene] = nil
		for _, e := range tbl.order {
			m.order[scene] = append(m.order[scene], e.token)
		}
	}
}

// check compares the tables with the model after an event.
func (m *lifecycleModel) check() {
	rows := m.r.check(m.t)
	if len(rows) != len(m.rows) {
		m.t.Fatalf("the tables hold %d tokens, the model %d", len(rows), len(m.rows))
	}
	for token, ml := range m.rows {
		e := rows[token]
		if e == nil || e.state != ml.state || m.r.tables[ml.scene].entries[token] != e {
			m.t.Fatalf("token %d: the model has it %d in %s, the tables %+v", token, ml.state, ml.scene, e)
		}
		if e.state == live && e.started != ml.started || ml.lin != nil && e.lin != ml.lin {
			m.t.Fatalf("token %d: started %v and lineage %p, want %v and %p", token, e.started, e.lin, ml.started, ml.lin)
		}
		if e.lin.Seq != ml.seq || e.lin.Session.Delivered() != ml.held {
			m.t.Fatalf("token %d at seq %d holding %d coefficients, want %d and %d", token, e.lin.Seq, e.lin.Session.Delivered(), ml.seq, ml.held)
		}
	}
	if got := m.dead + m.r.released(); got != m.releases {
		m.t.Fatalf("%d lineages released, want %d", got, m.releases)
	}
}

// pick returns the b-th (mod count) token, in token order, whose row
// satisfies keep; 0 when none does.
func (m *lifecycleModel) pick(b byte, keep func(*modelLineage) bool) uint64 {
	var tokens []uint64
	for token, ml := range m.rows {
		if keep(ml) {
			tokens = append(tokens, token)
		}
	}
	if len(tokens) == 0 {
		return 0
	}
	slices.Sort(tokens)
	return tokens[int(b)%len(tokens)]
}

func isLive(ml *modelLineage) bool   { return ml.state == live }
func isParked(ml *modelLineage) bool { return ml.state == parked }

// FuzzSessionLifecycle drives the session tables of a two-scene
// registry over a real journal with a drawn event sequence and checks
// them, after every event, against a reference model: a token → state
// map with park order, the journal's live set and a release count. A
// program whose first byte is odd runs the concurrent variant instead
// (runConcurrentLifecycle), which checks the same invariants at the end.
func FuzzSessionLifecycle(f *testing.F) {
	// Sequential events, one op byte each, then its arguments: 0 greet
	// (scene), 1 select (token, scene), 2 request (token), 3 goodbye
	// (token), 4 drop (token), 5 resume a parked token (self, token,
	// 0 in sync / 1 a frame behind / 2 stale), 6 resume a live token,
	// taking it over (self, token), 7 resume a gone token (self, token),
	// 8 sever (scene), 9 advance the clock by 0–12 s, 10 remove a scene
	// (scene, fires on 0 mod 4), 11 kill and restore.
	f.Add([]byte{0, // seed#0: a take-over, a rollback, a stale and an expired resume
		0, 0, 0, 0, 2, 0, 2, 0, 2, 1, 6, 1, 0, 2, 0, 4, 0,
		0, 0, 5, 0, 0, 1, 2, 0, 4, 0, 0, 0, 5, 0, 0, 2,
		2, 0, 4, 0, 0, 0, 9, 3, 5, 0, 0, 0})
	f.Add([]byte{0, // seed#1: parks evict, the clock moves, a restart restores
		0, 0, 2, 0, 4, 0,
		0, 0, 2, 0, 4, 0,
		0, 0, 2, 0, 4, 0,
		9, 2, 0, 0, 2, 0, 4, 0,
		0, 0, 2, 0, 2, 0, 4, 0,
		11, 0, 0, 5, 0, 0, 0, 5, 0, 1, 1, 7, 0, 0})
	f.Add([]byte{0, // seed#2: a select, severs, a removed scene, a restart without it
		0, 0, 0, 0, 1, 1, 1, 2, 0, 2, 1, 0, 1, 8, 1, 8, 0,
		0, 1, 5, 0, 1, 0, 0, 0, 2, 1, 10, 0, 4, 1, 2, 0, 4, 0,
		11, 0, 0, 0, 1, 5, 0, 0, 0})
	f.Add([]byte{0, // seed#3: a take-over of a greeting, goodbyes, gone and cross-scene resumes
		0, 0, 0, 0, 2, 0, 6, 0, 1, 3, 0, 0, 0, 7, 0, 0,
		0, 1, 2, 1, 3, 0, 4, 0, 0, 0, 5, 0, 0, 0})
	f.Add([]byte{1, // seed#4: concurrent
		0, 0, 2, 0, 4, 0, 0, 1, 2, 1, 6, 0, 0, 5, 0, 1, 0, 8, 0, 9, 3, 3, 0,
		2, 2, 1, 4, 0, 7, 1, 3, 6, 1, 1, 5, 2, 0, 8, 1, 0, 2, 3, 4})
	f.Add([]byte{3, // seed#5: concurrent, resumes racing drops
		0, 0, 2, 0, 0, 0, 2, 1, 4, 0, 6, 0, 1, 4, 1, 6, 1, 0, 5, 1, 0, 1,
		2, 3, 4, 5, 6, 7, 2, 4, 6, 5, 4, 2, 0, 5, 5, 1, 4, 2, 6, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if data[0]%2 == 1 {
			runConcurrentLifecycle(t, data[1:])
			return
		}
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		r := newLifecycleRig(t)
		m := &lifecycleModel{t: t, r: r, rows: map[uint64]*modelLineage{}, order: map[string][]uint64{}, removed: map[string]bool{}}
		for events := 0; len(data) > 0 && events < 200; events++ {
			op := next() % 12
			switch op {
			case 0:
				m.greet(modelScenes[next()%2])
			case 1:
				if tok := m.pick(next(), isLive); tok != 0 {
					m.selectScene(tok, modelScenes[next()%2])
				}
			case 2, 3, 4:
				tok := m.pick(next(), isLive)
				switch {
				case tok == 0:
				case op == 2:
					m.request(tok)
				case op == 3:
					m.bye(tok)
				default:
					m.drop(tok)
				}
			case 5, 6, 7:
				self := m.pick(next(), isLive)
				b := next()
				if self == 0 {
					break
				}
				var tok uint64
				applied := int64(0)
				switch op {
				case 5:
					if tok = m.pick(b, isParked); tok != 0 {
						applied = m.rows[tok].seq - int64(next()%3)
					}
				case 6:
					tok = m.pick(b, func(ml *modelLineage) bool { return ml.state == live && ml.scene == m.rows[self].scene })
					if tok == self {
						tok = 0
					}
					if tok != 0 {
						applied = m.rows[tok].seq
					}
				default:
					// A token minted and gone, or never minted.
					if tok = uint64(b)%(m.minted+2) + 1; m.rows[tok] != nil {
						tok = m.minted + 1000
					}
				}
				if tok != 0 {
					m.resume(self, tok, applied)
				}
			case 8:
				m.sever(modelScenes[next()%2])
			case 9:
				r.clock.Add(int64(next()%4) * int64(4*time.Second))
			case 10:
				if scene := next(); scene%4 == 0 {
					m.remove(modelScenes[scene/4%2])
				}
			case 11:
				m.restart()
			}
			m.check()
		}
		r.j.Close()
	})
}

// severFlag is the concurrent variant's connection: a sever marks it,
// and the goroutine serving the connection notices at its next step
// and drops the lineage, as a handler notices its closed socket.
type severFlag struct{ atomic.Bool }

func (f *severFlag) Close() error { f.Store(true); return nil }

// runConcurrentLifecycle runs the program (its first 64 bytes) on four
// goroutines at once, each from its own offset and eight times over.
// Each serves its own connections — greets, selects, requests, goodbyes
// and drops them, and drops those severed since its last step — resumes
// the other goroutines' tokens (in sync or a frame behind) and severs
// scenes, while the clock advances under them. Once all are done the
// rig's invariants must hold. The release count is the sequential
// model's alone.
func runConcurrentLifecycle(t *testing.T, program []byte) {
	if len(program) == 0 {
		return
	}
	program = program[:min(len(program), 64)]
	r := newLifecycleRig(t)
	defer r.j.Close()
	var minted atomic.Uint64
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			type conn struct {
				tbl     *Sessions
				severed *severFlag
				lin     *Lineage
			}
			own := map[uint64]conn{}
			var tokens []uint64
			end := func(tok uint64, orderly bool) {
				if orderly {
					own[tok].tbl.Bye(tok)
				} else {
					own[tok].tbl.Drop(tok)
				}
				delete(own, tok)
				tokens = slices.DeleteFunc(tokens, func(x uint64) bool { return x == tok })
			}
			pc := w * len(program) / 4
			next := func() byte {
				b := program[pc%len(program)]
				pc++
				return b
			}
			for step := 0; step < 8*len(program); step++ {
				for _, tok := range slices.Clone(tokens) {
					if own[tok].severed.Load() {
						end(tok, false)
					}
				}
				var tok uint64
				if len(tokens) > 0 {
					tok = tokens[int(next())%len(tokens)]
				}
				switch op := next() % 10; {
				case op == 0 || tok == 0:
					tok = minted.Add(1)
					c := conn{tbl: r.tables[modelScenes[next()%2]], severed: new(severFlag)}
					c.lin = c.tbl.Greet(tok, c.severed, nil)
					own[tok], tokens = c, append(tokens, tok)
				case op == 1:
					c := own[tok]
					c.tbl.Bye(tok)
					c.tbl = r.tables[modelScenes[next()%2]]
					c.lin = c.tbl.Greet(tok, c.severed, nil)
					own[tok] = c
				case op == 2:
					c := own[tok]
					c.tbl.Start(tok)
					frame(c.lin, c.tbl.srv)
				case op == 3 || op == 4:
					end(tok, op == 3)
				case op <= 7:
					target, applied := uint64(next())%minted.Load()+1, -int64(next()%2)
					if _, mine := own[target]; !mine {
						c := own[tok]
						if l, ok := c.tbl.Resume(tok, target, applied, 2*time.Millisecond); ok {
							c.lin = l
							own[tok] = c
						}
					}
				case op == 8:
					r.tables[modelScenes[next()%2]].Sever(2 * time.Millisecond)
				default:
					r.clock.Add(int64(time.Second))
				}
			}
			for len(tokens) > 0 {
				end(tokens[0], false)
			}
		}()
	}
	workers.Wait()
	r.check(t)
}

// TestImportJournaledBeforeTakeable imports a shipped lineage while a
// client connected straight to the target resumes its token: the import
// is one transition, journaled before the lineage can be taken, so the
// take's tombstone follows its park and the journal ends with nothing
// live — a restart cannot resurrect the resumed lineage — and the
// record's encode never races the taker (-race).
func TestImportJournaledBeforeTakeable(t *testing.T) {
	st := stats.New()
	src := buildRegistry(t, st)
	city, _ := src.Get("city")
	for token := uint64(1); token <= 20; token++ {
		serve(city, token).Seq = 1
		city.Sessions.Drop(token)
	}
	shipped, err := src.ExportSessions("city")
	if err != nil {
		t.Fatal(err)
	}
	dst := buildRegistry(t, st)
	j, err := OpenSessionJournal(filepath.Join(t.TempDir(), SessionJournalFile), 0, st)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	dst.SetSessionJournal(j)
	target, _ := dst.Get("city")
	const self = 1 << 40
	target.Sessions.Greet(self, nopConn{}, nil)
	for _, p := range shipped {
		park, err := decodePark(p)
		if err != nil {
			t.Fatal(err)
		}
		spinning, taken := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(taken)
			for i := 0; ; i++ {
				if l, ok := target.Sessions.Resume(self, park.token, 1, 0); ok {
					l.LastIDs = append(l.LastIDs, 1)
					return
				}
				if i == 0 {
					close(spinning)
				}
			}
		}()
		<-spinning
		if n, err := dst.ImportSessions("city", [][]byte{p}); err != nil || n != 1 {
			t.Fatalf("import: %d, %v", n, err)
		}
		<-taken
	}
	if n := j.Live(); n != 0 {
		t.Fatalf("%d resumed lineages still live in the journal", n)
	}
}

// TestRemovedSceneLeavesNoPark: a connection still bound to a scene the
// registry removed drops and is discarded, not parked into a journal
// record no restart could restore; and a restore tombstones the records
// of scenes the registry does not serve.
func TestRemovedSceneLeavesNoPark(t *testing.T) {
	st := stats.New()
	reg := buildRegistry(t, st)
	path := filepath.Join(t.TempDir(), SessionJournalFile)
	j, err := OpenSessionJournal(path, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetSessionJournal(j)
	city, _ := reg.Get("city")
	park, _ := reg.Get("park")
	serve(city, 1)
	if _, err := reg.RemoveScene("city"); err != nil {
		t.Fatal(err)
	}
	city.Sessions.Drop(1)
	if n := j.Live(); n != 0 {
		t.Fatalf("a drop on a removed scene left %d live parks in the journal", n)
	}
	serve(park, 2)
	park.Sessions.Drop(2)
	j.Close()

	j2, err := OpenSessionJournal(path, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := buildRegistry(t, st)
	if _, err := reg2.RemoveScene("park"); err != nil {
		t.Fatal(err)
	}
	reg2.SetSessionJournal(j2)
	if n := j2.Restore(reg2); n != 0 {
		t.Fatalf("restored %d lineages of a scene the registry does not serve", n)
	}
	if n := j2.Live(); n != 0 {
		t.Fatalf("%d records of an unserved scene still live after the restore", n)
	}
	j2.Close()
	j3, err := OpenSessionJournal(path, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if n := j3.Live(); n != 0 {
		t.Fatalf("%d records of an unserved scene live on disk", n)
	}
}
