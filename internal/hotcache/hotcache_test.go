package hotcache

import (
	"math"
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

func q(x0, y0, x1, y1, wmax float64) index.Query {
	return index.Query{
		Region: geom.Rect2{Min: geom.V2(x0, y0), Max: geom.V2(x1, y1)},
		ZMin:   0, ZMax: 100,
		WMin: 0, WMax: wmax,
	}
}

// TestGetPutRoundTrip pins the basic contract: a stored result replays
// with the same ids and the same io, appended to the caller's buffer.
func TestGetPutRoundTrip(t *testing.T) {
	c := New(Config{})
	query := q(0, 0, 100, 100, 1)
	ids := []int64{3, 7, 9}
	c.Put(query, ids, 17)
	ids[0] = 99 // Put must have copied
	buf := []int64{-1}
	buf, io, ok := c.Get(query, buf)
	if !ok || io != 17 {
		t.Fatalf("Get = io %d ok %v, want 17 true", io, ok)
	}
	if !slices.Equal(buf, []int64{-1, 3, 7, 9}) {
		t.Fatalf("buf = %v", buf)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestExactQueryVerification pins that bucket collisions miss rather
// than answer the wrong query: two queries in the same quantization cell
// coexist as one entry, last Put wins.
func TestExactQueryVerification(t *testing.T) {
	c := New(Config{})
	a := q(1, 1, 10, 10, 1)
	b := q(2, 2, 11, 11, 1) // same 64-unit cell as a
	c.Put(a, []int64{1}, 1)
	if _, _, ok := c.Get(b, nil); ok {
		t.Fatal("collision returned the wrong query's result")
	}
	c.Put(b, []int64{2}, 2)
	if _, _, ok := c.Get(a, nil); ok {
		t.Fatal("replaced entry still hit")
	}
	buf, _, ok := c.Get(b, nil)
	if !ok || !slices.Equal(buf, []int64{2}) {
		t.Fatalf("Get(b) = %v %v", buf, ok)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("last-one-wins not counted as eviction: %+v", st)
	}
}

// TestLRUEviction pins both bounds: entry count and bytes, evicting
// least-recently-used first.
func TestLRUEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	qa, qb, qc := q(0, 0, 0.5, 0.5, 1), q(100, 100, 100.5, 100.5, 1), q(200, 200, 200.5, 200.5, 1)
	c.Put(qa, []int64{1}, 1)
	c.Put(qb, []int64{2}, 1)
	c.Get(qa, nil)           // refresh a
	c.Put(qc, []int64{3}, 1) // evicts b (LRU)
	if _, _, ok := c.Get(qb, nil); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, _, ok := c.Get(qa, nil); !ok {
		t.Fatal("recently used entry evicted")
	}
	// Byte bound: a payload large enough to bust MaxBytes evicts down.
	cb := New(Config{MaxBytes: entryOverhead + 512})
	cb.Put(qa, make([]int64, 64), 1) // 160 + 512 bytes: fits exactly
	cb.Put(qb, make([]int64, 64), 1) // second entry must push the first out
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
	c.Put(query, []int64{5}, 3)
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
			if !slices.Equal(cached, want) || cachedIO != wantIO {
				t.Fatalf("step %d: cache hit diverged from the index: %d ids io %d, want %d ids io %d",
					step, len(cached), cachedIO, len(want), wantIO)
			}
		} else {
			c.Put(query, want, wantIO)
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
// replaced and evicted underneath it.
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
			var buf, cached []int64
			for i := 0; i < 400; i++ {
				query := pool[rng.Intn(len(pool))]
				var cio int64
				var ok bool
				cached, cio, ok = c.Get(query, cached[:0])
				var io int64
				buf, io = idx.SearchInto(query, buf[:0], &cur)
				if !ok {
					c.Put(query, buf, io)
				} else if !slices.Equal(cached, buf) || cio != io {
					t.Errorf("concurrent hit diverged: %d ids io %d vs %d ids io %d",
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

// TestQuantizeEdges pins the float→bucket clamps: NaN and the infinities
// land in fixed buckets instead of invoking undefined conversion.
func TestQuantizeEdges(t *testing.T) {
	if got := quantize(math.NaN(), 64); got != math.MinInt64 {
		t.Fatalf("quantize(NaN) = %d", got)
	}
	if got := quantize(math.Inf(1), 64); got != math.MaxInt64 {
		t.Fatalf("quantize(+Inf) = %d", got)
	}
	if got := quantize(math.Inf(-1), 64); got != math.MinInt64 {
		t.Fatalf("quantize(-Inf) = %d", got)
	}
	if got := quantize(-128.5, 64); got != -3 {
		t.Fatalf("quantize(-128.5, 64) = %d, want -3", got)
	}
}
