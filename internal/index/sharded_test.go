package index

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/stats"
)

// randQuery draws a query over the store's space, mixing generic windows
// with the degenerate shapes that have bitten queryRect before:
// point-sized regions and point value bands.
func randQuery(rng *rand.Rand, b geom.Rect3) Query {
	q := Query{WMin: 0, WMax: rng.Float64()}
	switch rng.Intn(4) {
	case 0: // point-sized window
		p := geom.V2(
			b.Min.X+rng.Float64()*(b.Max.X-b.Min.X),
			b.Min.Y+rng.Float64()*(b.Max.Y-b.Min.Y))
		q.Region = geom.Rect2{Min: p, Max: p}
	case 1: // thin sliver
		x := b.Min.X + rng.Float64()*(b.Max.X-b.Min.X)
		q.Region = geom.Rect2{
			Min: geom.V2(x, b.Min.Y),
			Max: geom.V2(x+1e-6, b.Max.Y)}
	default: // generic window
		x0 := b.Min.X + rng.Float64()*(b.Max.X-b.Min.X)
		y0 := b.Min.Y + rng.Float64()*(b.Max.Y-b.Min.Y)
		q.Region = geom.Rect2{
			Min: geom.V2(x0, y0),
			Max: geom.V2(x0+rng.Float64()*400, y0+rng.Float64()*400)}
	}
	if rng.Intn(8) == 0 {
		q.WMin = q.WMax // point value band
	}
	q.ZMin, q.ZMax = 0, 100
	return q
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedMatchesMotionAware is the property pinning the tentpole:
// for every shard count and both layouts, Sharded returns the
// byte-identical id stream the serial MotionAware oracle returns over
// random queries. (I/O counts are NOT compared: a partitioned index
// legitimately reads different node sets.)
func TestShardedMatchesMotionAware(t *testing.T) {
	for _, layout := range []Layout{XYW, XYZW} {
		for _, k := range []int{1, 2, 7, 16} {
			store := testStore(t, 12, 42)
			oracle := NewMotionAware(store, layout, rtree.Config{})
			sharded := NewSharded(store, layout, ShardedConfig{Shards: k})
			if sharded.NumShards() != k {
				t.Fatalf("NumShards = %d, want %d", sharded.NumShards(), k)
			}
			if sharded.Len() != oracle.Len() {
				t.Fatalf("k=%d: Len %d != oracle %d", k, sharded.Len(), oracle.Len())
			}
			rng := rand.New(rand.NewSource(int64(k) * 7))
			bounds := store.Bounds()
			for step := 0; step < 300; step++ {
				q := randQuery(rng, bounds)
				want, _ := oracle.Search(q)
				got, _ := sharded.Search(q)
				if !equalIDs(got, want) {
					t.Fatalf("layout=%v k=%d step %d: %d ids != oracle %d ids (query %+v)",
						layout, k, step, len(got), len(want), q)
				}
			}
		}
	}
}

// TestShardedConcurrentReaders runs many readers over one Sharded at
// once, through Search and through SearchInto with a cursor each: every
// answer must equal the serial one, ids and I/O both, and the race
// detector (`make race`) must have nothing to say: the served index
// holds no lock.
func TestShardedConcurrentReaders(t *testing.T) {
	store := testStore(t, 10, 11)
	idx := NewSharded(store, XYW, ShardedConfig{Shards: 8})
	rng := rand.New(rand.NewSource(5))
	queries := make([]Query, 64)
	wantIDs := make([][]int64, len(queries))
	wantIO := make([]int64, len(queries))
	for i := range queries {
		queries[i] = randQuery(rng, store.Bounds())
		wantIDs[i], wantIO[i] = idx.Search(queries[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var cur Cursor
			var buf []int64
			for round := 0; round < 10; round++ {
				for k := range queries {
					i := (k + g*7) % len(queries)
					var ids []int64
					var io int64
					if g%2 == 0 {
						buf, io = idx.SearchInto(queries[i], buf[:0], &cur)
						ids = buf
					} else {
						ids, io = idx.Search(queries[i])
					}
					if !equalIDs(ids, wantIDs[i]) || io != wantIO[i] {
						t.Errorf("reader %d query %d: %d ids io %d, serial %d ids io %d",
							g, i, len(ids), io, len(wantIDs[i]), wantIO[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestGridShape(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 7: {1, 7}, 12: {3, 4}, 16: {4, 4}}
	for k, want := range cases {
		r, c := gridShape(k)
		if r != want[0] || c != want[1] {
			t.Errorf("gridShape(%d) = %d×%d, want %d×%d", k, r, c, want[0], want[1])
		}
		if r*c != k {
			t.Errorf("gridShape(%d) = %d×%d does not multiply back", k, r, c)
		}
	}
}

// TestShardedStatsWiring pins the per-shard accounting over a fixed
// query list: a shard is charged one search for every query its content
// MBR overlaps and exactly the node reads its own tree counted, and the
// shard rows add up to the I/O the searches reported.
func TestShardedStatsWiring(t *testing.T) {
	store := testStore(t, 6, 13)
	idx := NewSharded(store, XYW, ShardedConfig{Shards: 4})
	st := stats.New()
	idx.SetStats(st)
	rng := rand.New(rand.NewSource(31))
	queries := []Query{{Region: store.Bounds().XY(), WMin: 0, WMax: 1}}
	for i := 0; i < 60; i++ {
		queries = append(queries, randQuery(rng, store.Bounds()))
	}
	wantSearches := make([]int64, 4)
	var cur Cursor
	var buf []int64
	var totalIO int64
	for i, q := range queries {
		var io int64
		buf, io = idx.SearchInto(q, buf[:0], &cur)
		if i == 0 && len(buf) == 0 {
			t.Fatal("full-space query returned nothing")
		}
		totalIO += io
		qr, ok := XYW.queryRect(q)
		for k, sh := range idx.shards {
			if ok && sh.overlaps(&qr, XYW.Dims()) {
				wantSearches[k]++
			}
		}
	}
	snap := st.Snapshot()
	if len(snap.Shards) != 4 {
		t.Fatalf("shard table = %d entries", len(snap.Shards))
	}
	var sumIO int64
	for k, sh := range snap.Shards {
		tree := idx.shards[k].tree.Stats()
		searches, io := sh[stats.ShardSearches], sh[stats.ShardNodeIO]
		if searches != wantSearches[k] || searches != tree.Queries || io != tree.NodesRead {
			t.Fatalf("shard %d: recorded %d searches io %d; overlapped %d queries, tree counted %d searches io %d",
				k, searches, io, wantSearches[k], tree.Queries, tree.NodesRead)
		}
		sumIO += io
	}
	if sumIO != totalIO {
		t.Fatalf("shard rows sum to io %d, searches reported %d", sumIO, totalIO)
	}
	if lens := idx.ShardLens(); len(lens) != 4 {
		t.Fatalf("ShardLens = %v", lens)
	}
}

// TestQueryRectDegenerateWindows is the regression test for the
// queryRect fix: a point-sized window must still return every coefficient
// whose support contains the point (closed-interval semantics), while a
// provably empty (inverted) window must return nothing instead of the
// spurious hits an inverted rtree.Rect used to produce.
func TestQueryRectDegenerateWindows(t *testing.T) {
	store := testStore(t, 6, 17)
	for _, idx := range []Index{
		NewMotionAware(store, XYW, rtree.Config{}),
		NewSharded(store, XYW, ShardedConfig{Shards: 4}),
	} {
		// A point at a known coefficient's support center must hit it.
		c := MustCoeff(store, 0)
		p := c.Support.XY().Min
		q := Query{Region: geom.Rect2{Min: p, Max: p}, WMin: 0, WMax: 1}
		ids, _ := idx.Search(q)
		found := false
		for _, id := range ids {
			if id == 0 {
				found = true
			}
			s := MustCoeff(store, id).Support.XY()
			if p.X < s.Min.X || p.X > s.Max.X || p.Y < s.Min.Y || p.Y > s.Max.Y {
				t.Fatalf("%s: hit %d whose support %v excludes the point %v", idx.Name(), id, s, p)
			}
		}
		if !found {
			t.Fatalf("%s: point window at coefficient 0's support corner missed it", idx.Name())
		}

		// Inverted region: provably empty, must not search.
		inv := Query{Region: geom.Rect2{Min: geom.V2(900, 900), Max: geom.V2(100, 100)}, WMin: 0, WMax: 1}
		if ids, io := idx.Search(inv); len(ids) != 0 || io != 0 {
			t.Fatalf("%s: inverted window returned %d ids, io %d", idx.Name(), len(ids), io)
		}
		// Inverted value band: likewise.
		invW := Query{Region: store.Bounds().XY(), WMin: 1, WMax: 0}
		if ids, _ := idx.Search(invW); len(ids) != 0 {
			t.Fatalf("%s: inverted value band returned %d ids", idx.Name(), len(ids))
		}
	}

	// The XYZW layout additionally rejects inverted height bands.
	ma := NewMotionAware(store, XYZW, rtree.Config{})
	invZ := Query{Region: store.Bounds().XY(), ZMin: 50, ZMax: -50, WMin: 0, WMax: 1}
	if ids, _ := ma.Search(invZ); len(ids) != 0 {
		t.Fatalf("inverted height band returned %d ids", len(ids))
	}
}
