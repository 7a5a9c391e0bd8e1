package retrieval

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
)

// reconcile asserts the sharing table's exact accounting invariant at
// rest: every routed sub-query led a search or waited on one.
func reconcile(t *testing.T, cs hotcache.Stats) {
	t.Helper()
	if cs.Routed != cs.Led+cs.Shared {
		t.Fatalf("table counters do not reconcile: routed %d != led %d + shared %d",
			cs.Routed, cs.Led, cs.Shared)
	}
}

// touch asks each sub-query once, so that the asks a test goes on to make
// are admitted to the sharing table (see hotcache.Cache.Search): a first
// ask is searched past it and leaves only its fingerprint.
func touch(srv *Server, subs ...SubQuery) {
	for _, sub := range subs {
		srv.Execute([]SubQuery{sub}, nil, nil, 0)
	}
}

// tableServer is testShardedServer with a sharing table wired.
func tableServer(t testing.TB, seed int64) *Server {
	t.Helper()
	srv := testShardedServer(t, 8, seed, 4)
	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	return srv
}

// TestCoalescerSharesLingeringResult pins the deterministic serial
// contract: the first ask of a query is searched alone, the second leads
// a search into an unfilled entry, and the third is answered from the
// filled entry instead of re-searching; a fresh table remembers nothing,
// so the next ask is a first touch again.
func TestCoalescerSharesLingeringResult(t *testing.T) {
	srv := tableServer(t, 41)
	if srv.Coalescer() != srv.HotCache() {
		t.Fatal("Coalescer is not the sharing table")
	}
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}

	r0 := srv.Execute([]SubQuery{sub}, nil, nil, 0)
	if cs := srv.Coalescer().Stats(); cs.Routed != 0 || cs.Entries != 0 {
		t.Fatalf("a first ask reached the table: %+v", cs)
	}
	r1 := srv.Execute([]SubQuery{sub}, nil, nil, 0)
	r2 := srv.Execute([]SubQuery{sub}, nil, nil, 0)
	if !respEqual(r0, r1) {
		t.Fatal("led response differs from the first touch's")
	}
	if !respEqual(r1, r2) {
		t.Fatal("shared response differs from the leader's")
	}
	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Routed != 1 || cs.Led != 1 || cs.Hits != 1 || cs.Flights != 0 {
		t.Fatalf("expected 1 led of 1 routed and 1 hit, got %+v", cs)
	}

	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	r3 := srv.Execute([]SubQuery{sub}, nil, nil, 0)
	if !respEqual(r1, r3) || r3.Hot.Valid {
		t.Fatal("a fresh table's first ask diverged or was held")
	}
	if cs := srv.Coalescer().Stats(); cs.Routed != 0 || cs.Entries != 0 {
		t.Fatalf("a fresh table's first ask reached it: %+v", cs)
	}
}

// TestCoalescerMovedQueryReplacesFlight pins the moving-crowd rule: a
// query 0.01 away from a held one's leads a search of its own (so a
// flock that moved keeps sharing), never adopts the other query's
// result, and its entry is shared in turn.
func TestCoalescerMovedQueryReplacesFlight(t *testing.T) {
	srv := tableServer(t, 43)
	a := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.20, WMax: 1}
	b := a
	b.WMin = 0.21

	touch(srv, a, b)
	ra := srv.Execute([]SubQuery{a}, nil, nil, 0)
	rb := srv.Execute([]SubQuery{b}, nil, nil, 0)
	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Led != 2 || cs.Entries != 2 {
		t.Fatalf("expected the moved query to lead a search of its own, got %+v", cs)
	}
	// The moved query's entry is shared in turn.
	rb2 := srv.Execute([]SubQuery{b}, nil, nil, 0)
	if !respEqual(rb, rb2) {
		t.Fatal("the moved query's shared answer diverged")
	}
	if cs = srv.Coalescer().Stats(); cs.Hits != 1 {
		t.Fatalf("expected the repeat of the moved query to hit, got %+v", cs)
	}
	// Each led pass must match uncoalesced execution exactly.
	plain := testShardedServer(t, 8, 43, 4)
	if wa := plain.Execute([]SubQuery{a}, nil, nil, 0); !respEqual(ra, wa) {
		t.Fatal("query a diverged from uncoalesced execution")
	}
	if wb := plain.Execute([]SubQuery{b}, nil, nil, 0); !respEqual(rb, wb) {
		t.Fatal("query b diverged from uncoalesced execution")
	}
}

// gatedIndex serves a Sharded, counts the index passes made, and lets
// a test block one search mid-flight to construct deterministic
// concurrency.
type gatedIndex struct {
	*index.Sharded
	passes  atomic.Int64
	mu      sync.Mutex
	block   chan struct{} // armed: next SearchWords waits on it
	entered chan struct{} // closed when the gated SearchWords begins
}

func (g *gatedIndex) arm() (chan struct{}, chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.block = make(chan struct{})
	g.entered = make(chan struct{})
	return g.block, g.entered
}

func (g *gatedIndex) SearchWords(q index.Query, buf []index.Word, cur *index.Cursor) ([]index.Word, int64) {
	g.passes.Add(1)
	g.mu.Lock()
	block, entered := g.block, g.entered
	g.block, g.entered = nil, nil
	g.mu.Unlock()
	if block != nil {
		close(entered)
		<-block
	}
	return g.Sharded.SearchWords(q, buf, cur)
}

// gatedServer is tableServer over a gatedIndex of the same data.
func gatedServer(t testing.TB, seed int64) (*Server, *gatedIndex) {
	t.Helper()
	base := testShardedServer(t, 8, seed, 4)
	gated := &gatedIndex{Sharded: base.Index().(*index.Sharded)}
	srv := NewServer(base.Store(), gated)
	srv.SetStats(nil)
	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	return srv, gated
}

// leadBlocked starts an ask of sub on scratch sc that leads a search
// into an unfilled entry and blocks mid-search. It returns once the
// search has begun, with the channel that releases it and the one the
// leader's response arrives on.
func leadBlocked(srv *Server, gated *gatedIndex, sub SubQuery, sc *Scratch) (release chan struct{}, lead chan Response) {
	release, entered := gated.arm()
	lead = make(chan Response, 1)
	go func() { lead <- srv.Execute([]SubQuery{sub}, nil, sc, 0) }()
	<-entered
	return release, lead
}

// waitShared waits until n askers are waiting on unfilled entries.
func waitShared(t *testing.T, srv *Server, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); srv.Coalescer().Stats().Shared < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %+v askers wait, want %d", srv.Coalescer().Stats(), n)
		}
	}
}

// TestCoalescerInFlightCollision pins that two exact queries in flight
// at once lead two searches: a query 0.01 away from one mid-search does
// not wait on it (it would adopt the wrong answer) but puts its own
// unfilled entry in the table and leads.
func TestCoalescerInFlightCollision(t *testing.T) {
	srv, gated := gatedServer(t, 43)
	a := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.20, WMax: 1}
	b := a
	b.WMin = 0.21

	touch(srv, a, b)
	release, lead := leadBlocked(srv, gated, a, nil)
	rb := srv.Execute([]SubQuery{b}, nil, nil, 0)
	if cs := srv.Coalescer().Stats(); cs.Led != 1 || cs.Flights != 1 || cs.Entries != 1 {
		t.Fatalf("expected b to lead and fill its own entry beside a's unfilled one, got %+v", cs)
	}
	close(release)
	ra := <-lead

	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Led != 2 || cs.Shared != 0 || cs.Flights != 0 {
		t.Fatalf("expected 2 led searches, got %+v", cs)
	}
	plain := testShardedServer(t, 8, 43, 4)
	if wa := plain.Execute([]SubQuery{a}, nil, nil, 0); !respEqual(ra, wa) {
		t.Fatal("query a diverged from uncoalesced execution")
	}
	if wb := plain.Execute([]SubQuery{b}, nil, nil, 0); !respEqual(rb, wb) {
		t.Fatal("query b diverged from uncoalesced execution")
	}
}

// TestCoalescerWaitersShareOnePass: with a leader blocked mid-search, N
// sessions asking its exact query wait on its unfilled entry and cost no
// index pass of their own, while a query 0.01 away leads its own pass.
// Each waiter's words are its own copy — never the leader's scratch —
// and every answer equals plain Execute.
func TestCoalescerWaitersShareOnePass(t *testing.T) {
	const waiters = 16
	srv, gated := gatedServer(t, 83)
	plain := testShardedServer(t, 8, 83, 4)
	a := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.20, WMax: 1}
	b := a
	b.WMin = 0.21
	wantA := plain.Execute([]SubQuery{a}, nil, nil, 0)
	wantB := plain.Execute([]SubQuery{b}, nil, nil, 0)

	touch(srv, a, b)
	before := gated.passes.Load()
	var leadScratch Scratch
	release, lead := leadBlocked(srv, gated, a, &leadScratch)
	sessions := make([]*Session, waiters)
	answers := make(chan Response, waiters)
	for i := range sessions {
		sessions[i] = NewSession(srv)
		go func(sess *Session) { answers <- sess.RetrieveScratch([]SubQuery{a}) }(sessions[i])
	}
	waitShared(t, srv, waiters)
	if rb := srv.Execute([]SubQuery{b}, nil, nil, 0); !respEqual(rb, wantB) {
		t.Fatal("the query 0.01 away diverged from plain Execute")
	}
	close(release)
	if ra := <-lead; !respEqual(ra, wantA) {
		t.Fatal("the leader diverged from plain Execute")
	}
	for i := 0; i < waiters; i++ {
		if got := <-answers; !respEqual(got, wantA) {
			t.Fatal("a waiter diverged from plain Execute")
		}
	}
	if n := gated.passes.Load() - before; n != 2 {
		t.Fatalf("%d index passes for a leader, %d waiters and a query 0.01 away, want 2", n, waiters)
	}
	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Led != 2 || cs.Shared != waiters {
		t.Fatalf("expected 2 led and %d shared, got %+v", waiters, cs)
	}
	lw := leadScratch.results[0].words
	for _, sess := range sessions {
		if w := sess.scratch.results[0].words; len(w) == 0 || &w[0] == &lw[0] {
			t.Fatal("a waiter's words alias the leader's scratch")
		}
	}
}

// TestCoalescerPopulatesHotCache pins the one table: the entry the
// second ask leads a search into is the cached result once filled, so
// the third ask is a hit that routes nothing.
func TestCoalescerPopulatesHotCache(t *testing.T) {
	srv := tableServer(t, 59)
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}
	if r0 := srv.Execute([]SubQuery{sub}, nil, nil, 0); r0.Hot.Valid {
		t.Fatal("first-touch response marked hot")
	}
	r1 := srv.Execute([]SubQuery{sub}, nil, nil, 0)
	if !r1.Hot.Valid {
		t.Fatal("led response not marked hot")
	}
	r2 := srv.Execute([]SubQuery{sub}, nil, nil, 0)
	if !respEqual(r1, r2) || !r2.Hot.Valid || r2.Hot != r1.Hot {
		t.Fatal("hot-cache replay of a coalesced result diverged")
	}
	if hs := srv.HotCache().Stats(); hs.Hits != 1 {
		t.Fatalf("expected the repeat to hit the hot cache, got %+v", hs)
	}
	if cs := srv.Coalescer().Stats(); cs.Routed != 1 {
		t.Fatalf("a hit was routed: %+v", cs)
	}
}

// TestCoalescedConcurrentMatchesIndependent is the byte-identity
// property under real concurrency (meaningful under -race): many
// sessions run overlapping frame streams in lockstep steps — all
// clients of a step concurrent against the coalesced server — and every
// response must be field-identical to an uncoalesced serial oracle
// serving the same streams.
func TestCoalescedConcurrentMatchesIndependent(t *testing.T) {
	const clients, steps = 8, 60
	srv := testShardedServer(t, 10, 61, 4)
	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	oracle := testShardedServer(t, 10, 61, 4)

	// Pre-plan every client's frames: half the clients share one flock
	// stream (identical queries, the coalescable case), half roam.
	streams := make([][][]SubQuery, clients)
	flock := make([][]SubQuery, steps)
	frng := rand.New(rand.NewSource(7))
	for s := range flock {
		flock[s] = randSubs(frng)
	}
	for c := range streams {
		if c%2 == 0 {
			streams[c] = flock
			continue
		}
		rng := rand.New(rand.NewSource(int64(c) * 131))
		own := make([][]SubQuery, steps)
		for s := range own {
			own[s] = randSubs(rng)
		}
		streams[c] = own
	}

	// The oracle serves serially, session per client, no table.
	want := make([][]Response, clients)
	oracleSess := make([]*Session, clients)
	for c := range want {
		want[c] = make([]Response, steps)
		oracleSess[c] = NewSession(oracle)
	}
	for s := 0; s < steps; s++ {
		for c := 0; c < clients; c++ {
			want[c][s] = oracleSess[c].Retrieve(streams[c][s])
		}
	}

	// Coalesced side: lockstep steps, all clients concurrent within one.
	starts := make([]chan struct{}, steps)
	done := make([]*sync.WaitGroup, steps)
	for s := range starts {
		starts[s] = make(chan struct{})
		done[s] = &sync.WaitGroup{}
		done[s].Add(clients)
	}
	var mu sync.Mutex
	failures := []string{}
	for c := 0; c < clients; c++ {
		go func(c int) {
			sess := NewSession(srv)
			for s := 0; s < steps; s++ {
				<-starts[s]
				got := sess.RetrieveScratch(streams[c][s])
				if !respEqual(got, want[c][s]) {
					mu.Lock()
					failures = append(failures,
						"client diverged from the independent oracle")
					mu.Unlock()
				}
				done[s].Done()
			}
		}(c)
	}
	for s := 0; s < steps; s++ {
		close(starts[s])
		done[s].Wait()
	}
	if len(failures) > 0 {
		t.Fatal(failures[0])
	}
	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Routed == 0 || cs.Hits+cs.Shared == 0 {
		t.Fatalf("soak shared nothing — property is vacuous: %+v", cs)
	}
}

// TestCoalescerFollowerCopiesFlightIDs pins the aliasing contract: a
// waiter's words are copied out of the entry into its own buffer, and
// the entry is a copy of the leader's, so reusing the leader's scratch
// afterwards corrupts neither the waiter's answer nor the entry.
func TestCoalescerFollowerCopiesFlightIDs(t *testing.T) {
	srv, gated := gatedServer(t, 67)
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}
	touch(srv, sub)
	var leadScratch, followScratch Scratch
	release, lead := leadBlocked(srv, gated, sub, &leadScratch)
	followed := make(chan Response, 1)
	go func() { followed <- srv.Execute([]SubQuery{sub}, nil, &followScratch, 0) }()
	waitShared(t, srv, 1)
	close(release)
	leadIDs := slices.Clone((<-lead).IDs)
	follow := <-followed
	if !slices.Equal(follow.IDs, leadIDs) {
		t.Fatal("the waiter's ids differ from the leader's")
	}
	// Overwrite the leader's scratch with an unrelated query that has
	// hits: neither the waiter's words nor the entry may change.
	followWords := slices.Clone(followScratch.results[0].words)
	if other := srv.Execute([]SubQuery{{Region: geom.R2(0, 0, 1000, 1000), WMin: 0.5, WMax: 1}}, nil, &leadScratch, 0); len(other.IDs) == 0 {
		t.Fatal("the overwriting query has no hits")
	}
	if !slices.Equal(followScratch.results[0].words, followWords) || !slices.Equal(follow.IDs, leadIDs) {
		t.Fatal("the waiter's answer was corrupted by the leader's next frame")
	}
	if again := srv.Execute([]SubQuery{sub}, nil, nil, 0); !slices.Equal(again.IDs, leadIDs) {
		t.Fatal("the entry was corrupted by the leader's next frame")
	}
}
