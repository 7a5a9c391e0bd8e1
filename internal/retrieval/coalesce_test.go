package retrieval

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
)

// reconcile asserts the coalescer's exact accounting invariant: every
// routed sub-query took exactly one of the three paths.
func reconcile(t *testing.T, cs CoalescerStats) {
	t.Helper()
	if cs.Routed != cs.Led+cs.Shared+cs.BypassCollision {
		t.Fatalf("coalescer counters do not reconcile: routed %d != led %d + shared %d + collision %d",
			cs.Routed, cs.Led, cs.Shared, cs.BypassCollision)
	}
}

// touch asks each sub-query once, so that the asks a test goes on to make
// are admitted to the sharing layers (see Server.admit): a first ask is
// searched past both and leaves only its fingerprint.
func touch(srv *Server, subs ...SubQuery) {
	for _, sub := range subs {
		srv.Execute([]SubQuery{sub}, nil)
	}
}

// TestCoalescerSharesLingeringResult pins the deterministic serial
// contract: the first ask of a query is searched alone, the second leads
// a flight, and within the linger window the third adopts that flight
// instead of re-searching; once Flush ends the window, the next ask
// leads a fresh flight.
func TestCoalescerSharesLingeringResult(t *testing.T) {
	srv := testShardedServer(t, 8, 41, 4)
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{Window: time.Hour}))
	if srv.Coalescer() == nil {
		t.Fatal("coalescer not wired")
	}
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}

	r0 := srv.Execute([]SubQuery{sub}, nil)
	if cs := srv.Coalescer().Stats(); cs.Routed != 0 || cs.Flights != 0 {
		t.Fatalf("a first ask reached the coalescer: %+v", cs)
	}
	r1 := srv.Execute([]SubQuery{sub}, nil)
	r2 := srv.Execute([]SubQuery{sub}, nil)
	if !respEqual(r0, r1) {
		t.Fatal("led response differs from the first touch's")
	}
	if !respEqual(r1, r2) {
		t.Fatal("adopted response differs from the leader's")
	}
	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Routed != 2 || cs.Led != 1 || cs.Shared != 1 {
		t.Fatalf("expected 1 led + 1 shared of 2 routed, got %+v", cs)
	}

	srv.Coalescer().Flush()
	r3 := srv.Execute([]SubQuery{sub}, nil)
	if !respEqual(r1, r3) {
		t.Fatal("fresh-flight response differs")
	}
	cs = srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Led != 2 || cs.Shared != 1 {
		t.Fatalf("expected the ask after Flush to lead a fresh flight, got %+v", cs)
	}
}

// TestCoalescerMovedQueryReplacesFlight pins the moving-crowd rule: a
// completed flight whose exact query nobody is asking anymore does not
// squat on its bucket — the next different query in the bucket evicts
// it and leads a fresh flight (so a flock re-landing in one bucket step
// after step keeps sharing), and never adopts the wrong result.
func TestCoalescerMovedQueryReplacesFlight(t *testing.T) {
	srv := testShardedServer(t, 8, 43, 4)
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{Window: time.Hour}))
	a := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.20, WMax: 1}
	b := a
	b.WMin = 0.21 // same 0.25-band bucket, different exact query

	touch(srv, a, b)
	ra := srv.Execute([]SubQuery{a}, nil)
	rb := srv.Execute([]SubQuery{b}, nil)
	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Led != 2 || cs.BypassCollision != 0 {
		t.Fatalf("expected the moved query to replace the stale flight and lead, got %+v", cs)
	}
	// The replacement flight is adoptable in turn.
	rb2 := srv.Execute([]SubQuery{b}, nil)
	if !respEqual(rb, rb2) {
		t.Fatal("adoption from the replacement flight diverged")
	}
	if cs = srv.Coalescer().Stats(); cs.Shared != 1 {
		t.Fatalf("expected the repeat of the replacement query to share, got %+v", cs)
	}
	// Each led pass must match uncoalesced execution exactly.
	plain := testShardedServer(t, 8, 43, 4)
	if wa := plain.Execute([]SubQuery{a}, nil); !respEqual(ra, wa) {
		t.Fatal("query a diverged from uncoalesced execution")
	}
	if wb := plain.Execute([]SubQuery{b}, nil); !respEqual(rb, wb) {
		t.Fatal("query b diverged from uncoalesced execution")
	}
}

// gatedIndex serves a Sharded and lets a test block one search
// mid-flight to construct deterministic concurrency.
type gatedIndex struct {
	*index.Sharded
	mu      sync.Mutex
	block   chan struct{} // armed: next SearchInto waits on it
	entered chan struct{} // closed when the gated SearchInto begins
}

func (g *gatedIndex) arm() (chan struct{}, chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.block = make(chan struct{})
	g.entered = make(chan struct{})
	return g.block, g.entered
}

func (g *gatedIndex) SearchInto(q index.Query, buf []int64, cur *index.Cursor) ([]int64, int64) {
	g.mu.Lock()
	block, entered := g.block, g.entered
	g.block, g.entered = nil, nil
	g.mu.Unlock()
	if block != nil {
		close(entered)
		<-block
	}
	return g.Sharded.SearchInto(q, buf, cur)
}

// TestCoalescerInFlightCollision pins the one case that still bypasses:
// a different exact query arriving while a flight for its bucket is
// mid-search cannot wait (it would adopt the wrong answer) and cannot
// replace (the flight is live) — it runs its own search.
func TestCoalescerInFlightCollision(t *testing.T) {
	base := testShardedServer(t, 8, 43, 4)
	gated := &gatedIndex{Sharded: base.Index().(*index.Sharded)}
	srv := NewServer(base.Store(), gated)
	srv.SetStats(nil)
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{Window: time.Hour}))
	a := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.20, WMax: 1}
	b := a
	b.WMin = 0.21 // same 0.25-band bucket, different exact query

	touch(srv, a, b)
	block, entered := gated.arm()
	lead := make(chan Response, 1)
	go func() { lead <- srv.Execute([]SubQuery{a}, nil) }()
	<-entered // the leader is now mid-search, flight in place

	rb := srv.Execute([]SubQuery{b}, nil)
	close(block)
	ra := <-lead

	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Led != 1 || cs.BypassCollision != 1 {
		t.Fatalf("expected 1 led + 1 in-flight collision bypass, got %+v", cs)
	}
	plain := testShardedServer(t, 8, 43, 4)
	if wa := plain.Execute([]SubQuery{a}, nil); !respEqual(ra, wa) {
		t.Fatal("query a diverged from uncoalesced execution")
	}
	if wb := plain.Execute([]SubQuery{b}, nil); !respEqual(rb, wb) {
		t.Fatal("query b diverged from uncoalesced execution")
	}
}

// TestCoalescerFlushEndsSharing pins Flush: completed flights are
// dropped, so the next identical query leads again.
func TestCoalescerFlushEndsSharing(t *testing.T) {
	srv := testShardedServer(t, 8, 47, 4)
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{Window: time.Hour}))
	sub := SubQuery{Region: geom.R2(0, 0, 500, 500), WMin: 0, WMax: 1}
	touch(srv, sub)
	srv.Execute([]SubQuery{sub}, nil)
	if f := srv.Coalescer().Stats().Flights; f != 1 {
		t.Fatalf("%d flights linger after the second ask, want 1", f)
	}
	srv.Coalescer().Flush()
	if f := srv.Coalescer().Stats().Flights; f != 0 {
		t.Fatalf("%d flights survive Flush", f)
	}
	srv.Execute([]SubQuery{sub}, nil)
	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Led != 2 || cs.Shared != 0 {
		t.Fatalf("expected both executions to lead after Flush, got %+v", cs)
	}
}

// TestCoalescerWindowExpiry pins the time-based linger bound: once the
// window passes, the flight ages out — with no Flush and nobody landing
// on its bucket — and the next query leads.
func TestCoalescerWindowExpiry(t *testing.T) {
	srv := testShardedServer(t, 8, 53, 4)
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{Window: time.Millisecond}))
	sub := SubQuery{Region: geom.R2(0, 0, 500, 500), WMin: 0, WMax: 1}
	elsewhere := []SubQuery{
		{Region: geom.R2(200, 0, 700, 500), WMin: 0, WMax: 1},
		{Region: geom.R2(0, 200, 500, 700), WMin: 0.5, WMax: 1},
	}
	for ask := 0; ask < 2; ask++ {
		touch(srv, sub)
		touch(srv, elsewhere...)
	}
	time.Sleep(5 * time.Millisecond)
	if cs := srv.Coalescer().Stats(); cs.Led != 3 || cs.Flights != 0 {
		t.Fatalf("3 flights in 3 buckets, a window ago: %+v", cs)
	}
	srv.Execute([]SubQuery{sub}, nil)
	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Led != 4 || cs.Shared != 0 {
		t.Fatalf("expected the lingering flight to expire, got %+v", cs)
	}
}

// TestCoalescerPopulatesHotCache pins the layering: the second ask's
// coalesced result is memoized into the hot cache, so the third ask is
// a cache hit that never reaches the coalescer.
func TestCoalescerPopulatesHotCache(t *testing.T) {
	srv := testShardedServer(t, 8, 59, 4)
	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{Window: time.Hour}))
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}
	if r0 := srv.Execute([]SubQuery{sub}, nil); r0.Hot.Valid {
		t.Fatal("first-touch response marked hot")
	}
	r1 := srv.Execute([]SubQuery{sub}, nil)
	if !r1.Hot.Valid {
		t.Fatal("coalesced response not marked hot")
	}
	r2 := srv.Execute([]SubQuery{sub}, nil)
	if !respEqual(r1, r2) || !r2.Hot.Valid || r2.Hot != r1.Hot {
		t.Fatal("hot-cache replay of a coalesced result diverged")
	}
	if hs := srv.HotCache().Stats(); hs.Hits != 1 {
		t.Fatalf("expected the repeat to hit the hot cache, got %+v", hs)
	}
	if cs := srv.Coalescer().Stats(); cs.Routed != 1 {
		t.Fatalf("cache hit leaked into the coalescer: %+v", cs)
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
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{Window: 50 * time.Millisecond}))
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

	// The oracle serves serially, session per client, no coalescer.
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
	if cs.Routed == 0 || cs.Shared == 0 {
		t.Fatalf("soak shared nothing — property is vacuous: %+v", cs)
	}
}

// TestCoalescerFollowerCopiesFlightIDs pins the aliasing contract: an
// adopted result is copied into the session's own buffer, so a
// follower's later frames cannot corrupt the flight (or other
// followers' responses).
func TestCoalescerFollowerCopiesFlightIDs(t *testing.T) {
	srv := testShardedServer(t, 8, 67, 4)
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{Window: time.Hour}))
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}
	var sc Scratch
	touch(srv, sub)
	lead := srv.ExecuteScratch([]SubQuery{sub}, nil, &sc)
	leadIDs := slices.Clone(lead.IDs)
	adopted := srv.ExecuteScratch([]SubQuery{sub}, nil, &sc)
	if !slices.Equal(adopted.IDs, leadIDs) {
		t.Fatal("adopted ids differ from the flight's")
	}
	// Overwrite the scratch with an unrelated query, then adopt again:
	// the flight must still hold the original ids.
	srv.ExecuteScratch([]SubQuery{{Region: geom.R2(0, 0, 50, 50), WMin: 0.9, WMax: 1}}, nil, &sc)
	again := srv.ExecuteScratch([]SubQuery{sub}, nil, &sc)
	if !slices.Equal(again.IDs, leadIDs) {
		t.Fatal("flight ids were corrupted by an interleaved scratch frame")
	}
}
