package retrieval

import (
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/stats"
)

// sharedServer is testShardedServer with both sharing layers wired (a
// flight lingers for an hour, so only admission decides what is shared)
// and its own stats collector.
func sharedServer(t testing.TB, seed int64) (*Server, *stats.Stats) {
	t.Helper()
	srv := testShardedServer(t, 8, seed, 4)
	st := stats.New()
	srv.SetStats(st)
	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{Window: time.Hour}))
	return srv, st
}

// reconcileLayers asserts the cross-layer identity at quiescence: every
// executed sub-query was a hot hit, a first touch, or routed through the
// coalescer.
func reconcileLayers(t *testing.T, srv *Server, st *stats.Stats) {
	t.Helper()
	snap, hs, cs := st.Snapshot(), srv.HotCache().Stats(), srv.Coalescer().Stats()
	reconcile(t, cs)
	if snap.Get(stats.RetrievalSubQueries) != hs.Hits+snap.Get(stats.RetrievalFirstTouches)+cs.Routed {
		t.Fatalf("sub-queries %d != hot hits %d + first touches %d + routed %d",
			snap.Get(stats.RetrievalSubQueries), hs.Hits, snap.Get(stats.RetrievalFirstTouches), cs.Routed)
	}
}

// TestFirstTouchLeavesNothing: a query asked once is answered like any
// other but costs neither layer anything — no flight, no hot entry, no
// HotRef — only the count of it.
func TestFirstTouchLeavesNothing(t *testing.T) {
	srv, st := sharedServer(t, 71)
	plain := testShardedServer(t, 8, 71, 4)
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}
	got, want := srv.Execute([]SubQuery{sub}, nil, nil, 0), plain.Execute([]SubQuery{sub}, nil, nil, 0)
	if !respEqual(got, want) || len(got.IDs) == 0 {
		t.Fatalf("first touch answered %d ids, bare server %d", len(got.IDs), len(want.IDs))
	}
	if got.Hot != (HotRef{}) {
		t.Fatalf("first touch carries a HotRef: %+v", got.Hot)
	}
	if hs := srv.HotCache().Stats(); hs.Entries != 0 || hs.Misses != 1 {
		t.Fatalf("first touch left the hot cache at %+v", hs)
	}
	if cs := srv.Coalescer().Stats(); cs.Routed != 0 || cs.Flights != 0 {
		t.Fatalf("first touch reached the coalescer: %+v", cs)
	}
	if n := st.Load(stats.RetrievalFirstTouches); n != 1 {
		t.Fatalf("FirstTouches = %d, want 1", n)
	}
	reconcileLayers(t, srv, st)
}

// TestNaNQueryPassesBothLayers: a sub-query with a NaN field is unequal
// to itself, so no flight or hot entry keyed by it could be found or
// dropped again. However often it is asked, it is answered as a bare
// server answers it and leaves neither layer anything; each ask counts
// as a first touch, so the layers' counters still add up.
func TestNaNQueryPassesBothLayers(t *testing.T) {
	srv, st := sharedServer(t, 79)
	plain := testShardedServer(t, 8, 79, 4)
	for _, sub := range []SubQuery{
		{Region: geom.R2(100, 100, 700, 700), WMin: math.NaN(), WMax: 1},
		{Region: geom.Rect2{Min: geom.V2(math.NaN(), 100), Max: geom.V2(700, 700)}, WMin: 0.2, WMax: 1},
	} {
		for ask := 0; ask < 3; ask++ {
			got, want := srv.Execute([]SubQuery{sub}, nil, nil, 0), plain.Execute([]SubQuery{sub}, nil, nil, 0)
			if !respEqual(got, want) || got.Hot != (HotRef{}) {
				t.Fatalf("ask %d of %+v: %d ids io %d hot %v, bare server %d ids io %d",
					ask, sub, len(got.IDs), got.IO, got.Hot.Valid, len(want.IDs), want.IO)
			}
		}
	}
	if hs := srv.HotCache().Stats(); hs.Entries != 0 || hs.Hits != 0 {
		t.Fatalf("NaN queries left the hot cache at %+v", hs)
	}
	if cs := srv.Coalescer().Stats(); cs.Routed != 0 || cs.Flights != 0 {
		t.Fatalf("NaN queries reached the coalescer: %+v", cs)
	}
	if n := st.Load(stats.RetrievalFirstTouches); n != 6 {
		t.Fatalf("FirstTouches = %d, want 6", n)
	}
	reconcileLayers(t, srv, st)
}

// TestSecondAskStoresThirdHits: three asks of one query are one first
// touch, one store and one hit, and the layers' counters add up to the
// sub-queries executed.
func TestSecondAskStoresThirdHits(t *testing.T) {
	srv, st := sharedServer(t, 73)
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}
	var rs [3]Response
	for i := range rs {
		rs[i] = srv.Execute([]SubQuery{sub}, nil, nil, 0)
	}
	if !respEqual(rs[0], rs[1]) || !respEqual(rs[1], rs[2]) {
		t.Fatal("the three asks were answered differently")
	}
	if rs[0].Hot.Valid || !rs[1].Hot.Valid || rs[2].Hot != rs[1].Hot {
		t.Fatalf("HotRefs %+v / %+v / %+v, want none / valid / the same", rs[0].Hot, rs[1].Hot, rs[2].Hot)
	}
	hs, cs := srv.HotCache().Stats(), srv.Coalescer().Stats()
	if hs.Entries != 1 || hs.Hits != 1 || hs.Misses != 2 {
		t.Fatalf("hot cache %+v, want 1 entry, 1 hit, 2 misses", hs)
	}
	if cs.Routed != 1 || cs.Led != 1 {
		t.Fatalf("coalescer %+v, want the second ask alone routed and led", cs)
	}
	if n := st.Load(stats.RetrievalFirstTouches); n != 1 {
		t.Fatalf("FirstTouches = %d, want 1", n)
	}
	reconcileLayers(t, srv, st)
}

// TestAlternatingCollidersAdmitted: two queries whose fingerprints share
// a first admission slot, asked in turn, are each admitted on their
// second ask and hit on their third: the fingerprint a new one displaces
// moves to its second slot instead of being forgotten. With one slot per
// fingerprint each ask swapped the other out, and all six asks were
// first touches.
func TestAlternatingCollidersAdmitted(t *testing.T) {
	srv, st := sharedServer(t, 73)
	var p, q SubQuery
	seen := map[uint64]SubQuery{}
	for i := 0; ; i++ {
		sub := SubQuery{Region: geom.R2(float64(i%64)*10, float64(i/64)*10, float64(i%64)*10+300, float64(i/64)*10+300), WMin: 0.2, WMax: 1}
		key := srv.queryOf(&sub)
		first, _ := admitSlotsOf(fingerprint(&key))
		if prev, ok := seen[first]; ok {
			p, q = prev, sub
			break
		}
		seen[first] = sub
	}
	for ask := 0; ask < 3; ask++ {
		for _, sub := range []SubQuery{p, q} {
			srv.Execute([]SubQuery{sub}, nil, nil, 0)
		}
	}
	if n := st.Load(stats.RetrievalFirstTouches); n != 2 {
		t.Fatalf("FirstTouches = %d over three alternating asks of two colliding queries, want 2", n)
	}
	if hs := srv.HotCache().Stats(); hs.Entries != 2 || hs.Hits != 2 {
		t.Fatalf("hot cache %+v, want 2 entries and 2 hits", hs)
	}
	reconcileLayers(t, srv, st)
}

// TestFirstTouchPinsNoPages: over a paged store the sharing layers hold
// results, never pages. A first ask, the second ask that stores the hot
// entry and the third ask it answers each leave no page pinned once the
// frame is done, and all three answer like the in-memory server.
func TestFirstTouchPinsNoPages(t *testing.T) {
	mem := testShardedServer(t, 8, 79, 4)
	path := filepath.Join(t.TempDir(), "scene.seg")
	if err := index.BuildSegment(path, mem.Store(), 3, 4096); err != nil {
		t.Fatal(err)
	}
	ps, err := index.OpenPaged(path, index.PagedConfig{CacheBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	srv := NewServer(ps, index.NewSharded(ps, index.XYW, index.ShardedConfig{Shards: 4}))
	srv.SetStats(nil)
	hot := hotcache.New(hotcache.Config{})
	srv.SetHotCache(hot)
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{}))

	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}
	want := mem.Execute([]SubQuery{sub}, nil, nil, 0)
	for i, ask := range []string{"first ask", "second ask", "hot hit"} {
		got := NewSession(srv).RetrieveScratch([]SubQuery{sub})
		if !respEqual(got, want) || len(got.IDs) == 0 {
			t.Fatalf("paged %s answered %d ids, in-memory %d", ask, len(got.IDs), len(want.IDs))
		}
		if hs := hot.Stats(); hs.Entries != min(i, 1) || hs.Hits != int64(max(i-1, 0)) {
			t.Fatalf("after the %s the hot cache is at %+v", ask, hs)
		}
		if pg := ps.PagerStats(); pg.PagesPinned != 0 {
			t.Fatalf("after the %s %d pages are pinned", ask, pg.PagesPinned)
		}
	}
}

// countingIndex serves a Sharded and counts the index passes made.
type countingIndex struct {
	*index.Sharded
	passes atomic.Int64
}

func (c *countingIndex) SearchWords(q index.Query, buf []index.Word, cur *index.Cursor) ([]index.Word, int64) {
	c.passes.Add(1)
	return c.Sharded.SearchWords(q, buf, cur)
}

// TestConcurrentFirstAsk: the table's slot is swapped, not read and then
// written, so of 64 sessions asking a never-seen query at once exactly
// one is the first touch; the rest share one flight or its stored
// result. Everyone gets the serial answer.
func TestConcurrentFirstAsk(t *testing.T) {
	base := testShardedServer(t, 8, 89, 4)
	counted := &countingIndex{Sharded: base.Index().(*index.Sharded)}
	srv := NewServer(base.Store(), counted)
	st := stats.New()
	srv.SetStats(st)
	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{Window: time.Hour}))
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}
	want := base.Execute([]SubQuery{sub}, nil, nil, 0)

	const askers = 64
	var wg sync.WaitGroup
	start := make(chan struct{})
	var wrong atomic.Int64
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := NewSession(srv)
			<-start
			if got := sess.RetrieveScratch([]SubQuery{sub}); !respEqual(got, want) {
				wrong.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d of %d concurrent askers got a different answer", n, askers)
	}
	if n := counted.passes.Load(); n != 2 {
		t.Fatalf("%d index passes for %d concurrent asks of one query, want 2: the first touch and one flight", n, askers)
	}
	if n := st.Load(stats.RetrievalFirstTouches); n != 1 {
		t.Fatalf("FirstTouches = %d, want exactly 1", n)
	}
	reconcileLayers(t, srv, st)
}
