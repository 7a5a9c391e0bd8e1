package hotcache

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/mesh"
	"repro/internal/wavelet"
)

func testStore(t testing.TB, n int, seed int64) *index.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]*wavelet.Decomposition, n)
	for i := 0; i < n; i++ {
		ground := geom.V2(rng.Float64()*900+50, rng.Float64()*900+50)
		s := mesh.RandomBuilding(rng, ground, mesh.DefaultBuildingSpec())
		objs[i] = wavelet.Decompose(int32(i), mesh.BaseMeshFor(s), s, 3)
	}
	return index.NewStore(objs)
}

// words folds ascending ids into the words a search returns.
func words(ids ...int64) []index.Word { return index.AppendWords(nil, ids) }

func q(x0, y0, x1, y1, wmax float64) index.Query {
	return index.Query{
		Region: geom.Rect2{Min: geom.V2(x0, y0), Max: geom.V2(x1, y1)},
		ZMin:   0, ZMax: 100,
		WMin: 0, WMax: wmax,
	}
}

// TestGetPutRoundTrip pins the basic contract: a stored result replays
// with the same words and the same io, appended to the caller's buffer.
func TestGetPutRoundTrip(t *testing.T) {
	c := New(Config{})
	query := q(0, 0, 100, 100, 1)
	stored := words(3, 7, 9, 200)
	c.Put(query, stored, 17)
	stored[0].Bits = 1 // Put must have copied
	buf := words(-1)
	buf, io, ok := c.Get(query, buf)
	if !ok || io != 17 {
		t.Fatalf("Get = io %d ok %v, want 17 true", io, ok)
	}
	if !slices.Equal(buf, words(-1, 3, 7, 9, 200)) {
		t.Fatalf("buf = %v", buf)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestExactQueryVerification pins that a query differing from a stored
// one in any float misses rather than answering the wrong query, and
// that nearby queries coexist: a and b lie 1 unit apart, c and d 0.01
// apart in WMin.
func TestExactQueryVerification(t *testing.T) {
	c := New(Config{})
	a := q(1, 1, 10, 10, 1)
	b := q(2, 2, 11, 11, 1)
	c.Put(a, words(1), 1)
	if _, _, ok := c.Get(b, nil); ok {
		t.Fatal("a differing query returned another query's result")
	}
	cq, dq := a, a
	cq.WMin, dq.WMin = 0.20, 0.21
	c.Put(b, words(2), 2)
	c.Put(cq, words(3), 3)
	c.Put(dq, words(4), 4)
	for _, want := range []struct {
		q     index.Query
		words []index.Word
		io    int64
	}{{a, words(1), 1}, {b, words(2), 2}, {cq, words(3), 3}, {dq, words(4), 4}} {
		buf, io, ok := c.Get(want.q, nil)
		if !ok || io != want.io || !slices.Equal(buf, want.words) {
			t.Fatalf("Get(%+v) = %v io %d ok %v, want %v io %d", want.q, buf, io, ok, want.words, want.io)
		}
	}
	if st := c.Stats(); st.Entries != 4 || st.Evictions != 0 {
		t.Fatalf("nearby queries displaced each other: %+v", st)
	}
}

// TestPutKeepsHeldEntry pins a second Put of a held query: the entry it
// holds stays, payload and all, and nothing counts as an eviction.
func TestPutKeepsHeldEntry(t *testing.T) {
	c := New(Config{})
	query := q(0, 0, 30, 30, 1)
	c.Put(query, words(5), 3)
	c.SetPayload(query, 0, []byte{1, 2, 3})
	c.Put(query, words(5), 3)
	if p, ok := c.Payload(query, 0); !ok || !slices.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("Payload after a second Put = %v %v", p, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 || st.Bytes != entryOverhead+wordBytes+3 {
		t.Fatalf("stats after a second Put = %+v", st)
	}
}

// TestLRUEviction pins both bounds: entry count and bytes, evicting
// least-recently-used first.
func TestLRUEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	qa, qb, qc := q(0, 0, 0.5, 0.5, 1), q(100, 100, 100.5, 100.5, 1), q(200, 200, 200.5, 200.5, 1)
	c.Put(qa, words(1), 1)
	c.Put(qb, words(2), 1)
	c.Get(qa, nil)         // refresh a
	c.Put(qc, words(3), 1) // evicts b (LRU)
	if _, _, ok := c.Get(qb, nil); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, _, ok := c.Get(qa, nil); !ok {
		t.Fatal("recently used entry evicted")
	}
	// Byte bound: a payload large enough to bust MaxBytes evicts down.
	cb := New(Config{MaxBytes: entryOverhead + 512})
	cb.Put(qa, make([]index.Word, 32), 1) // 160 + 512 bytes: fits exactly
	cb.Put(qb, make([]index.Word, 32), 1) // second entry must push the first out
	st := cb.Stats()
	if st.Entries != 1 || st.Evictions != 1 || st.Bytes > entryOverhead+512 {
		t.Fatalf("byte bound not enforced: %+v", st)
	}
}

// TestPayloadAttach pins the serialized-blob fast path: attach once,
// replay while the entry lives.
func TestPayloadAttach(t *testing.T) {
	c := New(Config{})
	query := q(0, 0, 30, 30, 1)
	if _, ok := c.Payload(query, 0); ok {
		t.Fatal("payload before entry")
	}
	c.Put(query, words(5), 3)
	if _, ok := c.Payload(query, 0); ok {
		t.Fatal("payload before attach")
	}
	blob := []byte{1, 2, 3}
	c.SetPayload(query, 0, blob)
	blob[0] = 9 // SetPayload must have copied
	got, ok := c.Payload(query, 0)
	if !ok || !slices.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Payload = %v %v", got, ok)
	}
}

// TestCacheMatchesIndexUnderChurn is the property the byte-identity
// claim rests on: a cache bounded below the query pool keeps evicting
// and re-storing entries, and every hit must equal what a fresh search
// of the index returns, ids and io both.
func TestCacheMatchesIndexUnderChurn(t *testing.T) {
	store := testStore(t, 10, 77)
	idx := index.NewSharded(store, index.XYW, index.ShardedConfig{Shards: 4})
	c := New(Config{MaxEntries: 4})
	rng := rand.New(rand.NewSource(7))
	b := store.Bounds()

	// A small pool of recurring queries so hits actually happen.
	pool := make([]index.Query, 8)
	for i := range pool {
		x := b.Min.X + rng.Float64()*(b.Max.X-b.Min.X)*0.5
		y := b.Min.Y + rng.Float64()*(b.Max.Y-b.Min.Y)*0.5
		pool[i] = q(x, y, x+300, y+300, rng.Float64())
	}

	var hits int
	for step := 0; step < 2000; step++ {
		query := pool[rng.Intn(len(pool))]
		cached, cachedIO, ok := c.Get(query, nil)
		want, wantIO := idx.Search(query)
		if ok {
			hits++
			if got := index.AppendIDs(nil, cached); !slices.Equal(got, want) || cachedIO != wantIO {
				t.Fatalf("step %d: cache hit diverged from the index: %d ids io %d, want %d ids io %d",
					step, len(got), cachedIO, len(want), wantIO)
			}
		} else {
			c.Put(query, index.AppendWords(nil, want), wantIO)
		}
	}
	st := c.Stats()
	if hits == 0 || st.Hits == 0 {
		t.Fatal("no cache hits in 2000 steps — test is vacuous")
	}
	if st.Evictions == 0 {
		t.Fatal("the bounded cache never evicted an entry")
	}
}

// TestCacheConcurrentChurn runs readers that store and replay results
// through one bounded cache at once, under the race detector: every hit
// must equal the reader's own fresh search, while entries keep being
// evicted underneath it.
func TestCacheConcurrentChurn(t *testing.T) {
	store := testStore(t, 8, 5)
	idx := index.NewSharded(store, index.XYW, index.ShardedConfig{Shards: 4})
	c := New(Config{MaxEntries: 3})
	b := store.Bounds()
	pool := make([]index.Query, 6)
	{
		rng := rand.New(rand.NewSource(2))
		for i := range pool {
			x := b.Min.X + rng.Float64()*(b.Max.X-b.Min.X)*0.5
			y := b.Min.Y + rng.Float64()*(b.Max.Y-b.Min.Y)*0.5
			pool[i] = q(x, y, x+400, y+400, 0.5+rng.Float64()*0.5)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var cur index.Cursor
			var buf, cached []index.Word
			for i := 0; i < 400; i++ {
				query := pool[rng.Intn(len(pool))]
				var cio int64
				var ok bool
				cached, cio, ok = c.Get(query, cached[:0])
				var io int64
				buf, io = idx.SearchWords(query, buf[:0], &cur)
				if !ok {
					c.Put(query, buf, io)
				} else if !slices.Equal(cached, buf) || cio != io {
					t.Errorf("concurrent hit diverged: %d words io %d vs %d words io %d",
						len(cached), cio, len(buf), io)
					return
				}
			}
		}(int64(g) * 13)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("no hits or no evictions in the concurrent run: %+v", st)
	}
}

// TestAlternatingCollidersAdmitted: two queries whose fingerprints share
// a first admission slot, asked in turn, are each admitted on their
// second ask and hit on their third: the fingerprint a new one displaces
// moves to its second slot instead of being forgotten. With one slot per
// fingerprint each ask swapped the other out, and all six asks were
// first touches.
func TestAlternatingCollidersAdmitted(t *testing.T) {
	store := testStore(t, 8, 73)
	idx := index.NewSharded(store, index.XYW, index.ShardedConfig{Shards: 4})
	c := New(Config{})
	var p, r index.Query
	seen := map[uint64]index.Query{}
	for i := 0; ; i++ {
		x, y := float64(i%64)*10, float64(i/64)*10
		query := q(x, y, x+300, y+300, 1)
		query.WMin = 0.2
		first, _ := admitSlotsOf(fingerprint(&query))
		if prev, ok := seen[first]; ok {
			p, r = prev, query
			break
		}
		seen[first] = query
	}
	var cur index.Cursor
	firstTouches := 0
	for ask := 0; ask < 3; ask++ {
		for _, query := range []index.Query{p, r} {
			got, io, held := c.Search(idx, query, nil, &cur)
			want, wantIO := idx.Search(query)
			if !slices.Equal(index.AppendIDs(nil, got), want) || io != wantIO {
				t.Fatalf("ask %d: %d ids io %d, want %d ids io %d", ask, len(index.AppendIDs(nil, got)), io, len(want), wantIO)
			}
			if !held {
				firstTouches++
			}
		}
	}
	if firstTouches != 2 {
		t.Fatalf("%d first touches over three alternating asks of two colliding queries, want 2", firstTouches)
	}
	if st := c.Stats(); st.Entries != 2 || st.Hits != 2 || st.Routed != 2 || st.Led != 2 {
		t.Fatalf("table %+v, want 2 entries, 2 hits and 2 led of 2 routed", st)
	}
}
