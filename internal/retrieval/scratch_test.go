package retrieval

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/mesh"
	"repro/internal/wavelet"
)

// testShardedServer builds a server over a Sharded index, the one engine
// scenes serve.
func testShardedServer(t testing.TB, n int, seed int64, shards int) *Server {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]*wavelet.Decomposition, n)
	for i := 0; i < n; i++ {
		ground := geom.V2(rng.Float64()*900+50, rng.Float64()*900+50)
		s := mesh.RandomBuilding(rng, ground, mesh.DefaultBuildingSpec())
		objs[i] = wavelet.Decompose(int32(i), mesh.BaseMeshFor(s), s, 3)
	}
	store := index.NewStore(objs)
	srv := NewServer(store, index.NewSharded(store, index.XYW, index.ShardedConfig{Shards: shards}))
	srv.SetStats(nil)
	return srv
}

func respEqual(a, b Response) bool {
	return slices.Equal(a.IDs, b.IDs) && a.Bytes == b.Bytes && a.IO == b.IO && a.Queries == b.Queries
}

// randSubs draws a frame-shaped batch of sub-queries, sometimes with
// degenerate members (Execute must skip them identically either way).
func randSubs(rng *rand.Rand) []SubQuery {
	n := 1 + rng.Intn(4)
	subs := make([]SubQuery, n)
	for i := range subs {
		x, y := rng.Float64()*800, rng.Float64()*800
		subs[i] = SubQuery{
			Region: geom.R2(x, y, x+rng.Float64()*400, y+rng.Float64()*400),
			WMin:   rng.Float64() * 0.5,
			WMax:   1,
		}
		if rng.Intn(10) == 0 {
			subs[i].WMin, subs[i].WMax = 1, 0 // degenerate: skipped
		}
	}
	return subs
}

// TestExecuteScratchMatchesExecute is the oracle property: for identical
// request streams against identical delivered sets, the scratch path
// returns field-identical responses to the fresh-allocation path —
// with and without the hot cache, over the sharded index and (cached)
// over the serial motion-aware one.
func TestExecuteScratchMatchesExecute(t *testing.T) {
	sharded := func(t testing.TB) *Server { return testShardedServer(t, 8, 21, 4) }
	serial := func(t testing.TB) *Server { return testServer(t, 8, 21) }
	for _, tc := range []struct {
		build     func(testing.TB) *Server
		withCache bool
	}{{sharded, false}, {sharded, true}, {serial, true}} {
		srv, oracle := tc.build(t), tc.build(t)
		withCache := tc.withCache
		if withCache {
			srv.SetHotCache(hotcache.New(hotcache.Config{}))
		}

		rng := rand.New(rand.NewSource(31))
		// A recurring pool alongside fresh random frames: exact-match
		// verification means only repeated queries can hit the cache.
		pool := make([][]SubQuery, 6)
		for i := range pool {
			pool[i] = randSubs(rng)
		}
		var sc Scratch
		dA, dB := new(Delivered), new(Delivered)
		for step := 0; step < 300; step++ {
			subs := randSubs(rng)
			if rng.Intn(2) == 0 {
				subs = pool[rng.Intn(len(pool))]
			}
			got := srv.Execute(subs, dA, &sc, 0)
			want := oracle.Execute(subs, dB, nil, 0)
			if !respEqual(got, want) {
				t.Fatalf("%s cache=%v step %d: scratch response %d ids io %d != oracle %d ids io %d",
					srv.Index().Name(), withCache, step, len(got.IDs), got.IO, len(want.IDs), want.IO)
			}
		}
		if withCache {
			if st := srv.HotCache().Stats(); st.Hits == 0 {
				t.Fatal("300 steps produced no cache hits — property is vacuous")
			}
		}
	}
}

// TestExecuteRemainsFresh pins the retention contract split: Execute
// results on a nil (so fresh) scratch survive later calls unchanged;
// results on a caller's scratch are valid only until the next call on
// it.
func TestExecuteRemainsFresh(t *testing.T) {
	srv := testShardedServer(t, 6, 9, 4)
	all := geom.R2(0, 0, 1000, 1000)
	subs := []SubQuery{{Region: all, WMin: 0, WMax: 1}}
	first := srv.Execute(subs, nil, nil, 0)
	snapshot := slices.Clone(first.IDs)
	var sc Scratch
	for i := 0; i < 5; i++ {
		small := []SubQuery{{Region: geom.R2(0, 0, 400, 400), WMin: 0, WMax: 1}}
		srv.Execute(small, nil, nil, 0)
		srv.Execute(small, nil, &sc, 0)
	}
	if !slices.Equal(first.IDs, snapshot) {
		t.Fatal("Execute result mutated by later Execute calls")
	}
}

// TestSessionRetrieveScratchMatchesRetrieve runs the same frame stream
// through a scratch session and a fresh-alloc session; every response
// must agree.
func TestSessionRetrieveScratchMatchesRetrieve(t *testing.T) {
	srv := testShardedServer(t, 8, 17, 4)
	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	rng := rand.New(rand.NewSource(5))
	// The second round runs on a released session, which must answer as
	// a fresh one does.
	a := NewSession(srv)
	for round := 0; round < 2; round++ {
		b := &Session{srv: srv}
		for step := 0; step < 100; step++ {
			subs := randSubs(rng)
			got := a.RetrieveScratch(subs)
			want := b.Retrieve(subs)
			if !respEqual(got, want) {
				t.Fatalf("round %d step %d: scratch session diverged (%d ids vs %d)", round, step, len(got.IDs), len(want.IDs))
			}
		}
		if a.Delivered() != b.Delivered() {
			t.Fatalf("round %d: delivered sets diverged: %d vs %d", round, a.Delivered(), b.Delivered())
		}
		a = releasedSession(t, srv, randSubs(rng))
		if a.Delivered() != 0 {
			t.Fatalf("a released session holds %d coefficients", a.Delivered())
		}
	}
}

// releasedSession returns a session NewSession handed out again after
// it served a frame and was released. sync.Pool may keep a Put on
// another P or drop it (the race detector drops some on purpose), so it
// tries until one comes back.
func releasedSession(t *testing.T, srv *Server, subs []SubQuery) *Session {
	t.Helper()
	for i := 0; i < 100; i++ {
		s := NewSession(srv)
		s.RetrieveScratch(subs)
		s.Release()
		if NewSession(srv) == s {
			return s
		}
	}
	t.Fatal("100 released sessions, NewSession handed none of them out again")
	return nil
}

// TestHotRefSemantics pins when a response may carry a payload-cache
// reference: single unfiltered sub-query, asked before, with nothing
// suppressed — and never on a first ask, never after the delivered set
// or a filter drops ids or a budget cuts them.
func TestHotRefSemantics(t *testing.T) {
	srv := testShardedServer(t, 6, 3, 4)
	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	all := geom.R2(0, 0, 1000, 1000)
	sub := SubQuery{Region: all, WMin: 0, WMax: 1}

	r0 := srv.Execute([]SubQuery{sub}, nil, nil, 0)
	if r0.Hot != (HotRef{}) {
		t.Fatalf("first ask carries a HotRef: %+v", r0.Hot)
	}
	r1 := srv.Execute([]SubQuery{sub}, nil, nil, 0)
	if !r1.Hot.Valid {
		t.Fatal("drop-free single-sub second ask not marked hot")
	}
	r2 := srv.Execute([]SubQuery{sub}, nil, nil, 0)
	if !r2.Hot.Valid || r2.Hot != r1.Hot {
		t.Fatalf("replayed response HotRef differs: %+v vs %+v", r2.Hot, r1.Hot)
	}
	if !respEqual(r0, r1) || !respEqual(r1, r2) {
		t.Fatal("first-touch, populating and cache-hit responses differ")
	}
	// A budget's cut: not hot; a budget the response fits: hot.
	if r := srv.Execute([]SubQuery{sub}, nil, nil, int64(len(r1.IDs)/2)*wavelet.WireBytes); r.Hot.Valid {
		t.Fatalf("budget-cut replay HotRef = %+v, want none", r.Hot)
	}
	if r := srv.Execute([]SubQuery{sub}, nil, nil, r1.Bytes); !r.Hot.Valid {
		t.Fatalf("budgeted but uncut replay HotRef = %+v, want Valid", r.Hot)
	}

	// Two subs: never hot (response concatenates entries).
	if r := srv.Execute([]SubQuery{sub, sub}, nil, nil, 0); r.Hot.Valid {
		t.Fatal("multi-sub response marked hot")
	}
	// Filter suppression: never hot.
	if r := srv.Execute([]SubQuery{{Region: all, WMin: 0, WMax: 1,
		Filter: func(geom.Vec3) bool { return false }}}, nil, nil, 0); r.Hot.Valid {
		t.Fatal("filtered response marked hot")
	}
	// Delivered-set suppression: first pass hot, replay with drops is not.
	delivered := new(Delivered)
	if r := srv.Execute([]SubQuery{sub}, delivered, nil, 0); !r.Hot.Valid {
		t.Fatal("first delivered-set pass not hot")
	}
	if r := srv.Execute([]SubQuery{sub}, delivered, nil, 0); r.Hot.Valid {
		t.Fatal("fully-suppressed replay marked hot")
	}
}

// TestExecuteScratchAllocBudget pins the steady-state allocation count
// of the serve path's core: after warmup, a cached request costs at most
// the map-free merge — zero allocations.
func TestExecuteScratchAllocBudget(t *testing.T) {
	srv := testShardedServer(t, 8, 29, 4)
	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	subs := []SubQuery{{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}}
	var sc Scratch
	srv.Execute(subs, nil, &sc, 0) // warm scratch
	srv.Execute(subs, nil, &sc, 0) // second ask: populate cache
	allocs := testing.AllocsPerRun(100, func() {
		srv.Execute(subs, nil, &sc, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state cached Execute on a Scratch allocates %.1f times per run, want 0", allocs)
	}

	// Uncached (cache disabled) path: still zero — the cursor and slabs
	// absorb everything.
	srv2 := testShardedServer(t, 8, 29, 4)
	var sc2 Scratch
	srv2.Execute(subs, nil, &sc2, 0)
	allocs = testing.AllocsPerRun(100, func() {
		srv2.Execute(subs, nil, &sc2, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state uncached Execute on a Scratch allocates %.1f times per run, want 0", allocs)
	}

	// Both sharing layers wired, over slivers that never repeat (what one
	// client's Algorithm 1 sends): every sub-query is a first touch, and a
	// first touch is the uncached path plus one atomic swap.
	srv3 := testShardedServer(t, 8, 29, 4)
	srv3.SetHotCache(hotcache.New(hotcache.Config{}))
	srv3.SetCoalescer(NewCoalescer(CoalescerConfig{}))
	var sc3 Scratch
	srv3.Execute(subs, nil, &sc3, 0)
	x := 100.0
	allocs = testing.AllocsPerRun(100, func() {
		x += 3
		sliver := [1]SubQuery{{Region: geom.R2(x, 100, x+3, 700), WMin: 0.2, WMax: 1}}
		srv3.Execute(sliver[:], nil, &sc3, 0)
	})
	if allocs != 0 {
		t.Fatalf("first-touch Execute on a Scratch with both sharing layers allocates %.1f times per run, want 0", allocs)
	}
	if hs, cs := srv3.HotCache().Stats(), srv3.Coalescer().Stats(); hs.Entries != 0 || cs.Routed != 0 {
		t.Fatalf("never-repeating slivers reached the sharing layers: %+v / %+v", hs, cs)
	}
}
