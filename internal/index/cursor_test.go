package index

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// TestSearchIntoMatchesSearch pins the allocation-free path to the
// allocating oracle for every IntoSearcher: identical id stream and I/O
// across random queries, with the cursor and buffer reused throughout.
func TestSearchIntoMatchesSearch(t *testing.T) {
	store := testStore(t, 12, 19)
	indexes := []IntoSearcher{
		NewMotionAware(store, XYW, rtree.Config{}),
		NewMotionAware(store, XYZW, rtree.Config{}),
		NewSharded(store, XYW, ShardedConfig{Shards: 8}),
	}
	rng := rand.New(rand.NewSource(23))
	bounds := store.Bounds()
	var cur Cursor
	var buf []int64
	for q := 0; q < 150; q++ {
		query := randQuery(rng, bounds)
		for _, idx := range indexes {
			want, wantIO := idx.Search(query)
			var gotIO int64
			buf, gotIO = idx.SearchInto(query, buf[:0], &cur)
			if gotIO != wantIO {
				t.Fatalf("%s query %d: SearchInto io %d, Search io %d", idx.Name(), q, gotIO, wantIO)
			}
			if !equalIDs(buf, want) {
				t.Fatalf("%s query %d: SearchInto %d ids != Search %d ids", idx.Name(), q, len(buf), len(want))
			}
		}
	}
}

// TestSearchIntoAppends pins that SearchInto appends after the buffer's
// existing contents instead of clobbering them, and orders only its own
// region.
func TestSearchIntoAppends(t *testing.T) {
	store := testStore(t, 8, 3)
	idx := NewSharded(store, XYW, ShardedConfig{Shards: 4})
	q := Query{Region: store.Bounds().XY(), ZMin: 0, ZMax: 100, WMin: 0, WMax: 1}
	want, _ := idx.Search(q)
	if len(want) == 0 {
		t.Fatal("whole-scene query returned nothing")
	}
	var cur Cursor
	buf := []int64{-7, -3}
	buf, _ = idx.SearchInto(q, buf, &cur)
	if buf[0] != -7 || buf[1] != -3 {
		t.Fatalf("prefix clobbered: %v", buf[:2])
	}
	if !equalIDs(buf[2:], want) {
		t.Fatalf("appended region %d ids != Search %d ids", len(buf)-2, len(want))
	}
}

// TestSearchIntoAllocFree pins the steady-state contract: a warmed-up
// search allocates nothing, for both the single tree and the sharded
// index, whatever GOMAXPROCS is.
func TestSearchIntoAllocFree(t *testing.T) {
	store := testStore(t, 12, 5)
	q := Query{Region: store.Bounds().XY(), ZMin: 0, ZMax: 100, WMin: 0, WMax: 0.5}
	for _, idx := range []IntoSearcher{
		NewMotionAware(store, XYW, rtree.Config{}),
		NewSharded(store, XYW, ShardedConfig{Shards: 8}),
	} {
		var cur Cursor
		var buf []int64
		buf, _ = idx.SearchInto(q, buf[:0], &cur) // warm scratch and buffer
		allocs := testing.AllocsPerRun(100, func() {
			buf, _ = idx.SearchInto(q, buf[:0], &cur)
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state SearchInto allocates %.1f times per run, want 0", idx.Name(), allocs)
		}
	}
}

// TestSearchWordsMatchesRawHits holds SearchWords, expanded, to a
// reference that bypasses the hit set — the R*-trees' raw hits sorted
// and compacted by slices — and SearchInto to the same ids, each with
// the reference's node I/O, for MotionAware and for Sharded at K ∈ {1,
// 4, 7}. The queries give hit batches below and above hitSortCutoff and
// degenerate windows that return nothing; every search appends after a
// prefix word it must leave alone. (The hit set's comparison-sort
// fallback for ids past its spine needs ids no test store reaches;
// TestHitSetMatchesSortCompact drives it directly.)
func TestSearchWordsMatchesRawHits(t *testing.T) {
	store := testStore(t, 12, 29)
	bounds := store.Bounds()
	ma := NewMotionAware(store, XYW, rtree.Config{})
	indexes := []IntoSearcher{ma}
	raws := []func(Query) ([]int64, int64){func(q Query) ([]int64, int64) {
		qr, ok := ma.layout.queryRect(q)
		if !ok {
			return nil, 0
		}
		var rt rtree.Cursor
		return ma.tree.SearchInto(qr, &rt, nil)
	}}
	for _, k := range []int{1, 4, 7} {
		s := NewSharded(store, XYW, ShardedConfig{Shards: k})
		indexes = append(indexes, s)
		raws = append(raws, func(q Query) ([]int64, int64) {
			var rt rtree.Cursor
			return s.searchRaw(q, nil, &rt)
		})
	}
	rng := rand.New(rand.NewSource(31))
	queries := []Query{
		{Region: bounds.XY(), ZMin: 0, ZMax: 100, WMin: 0.9, WMax: 0.1},                           // inverted band
		{Region: geom.Rect2{Min: geom.V2(9, 9), Max: geom.V2(1, 1)}, ZMin: 0, ZMax: 100, WMax: 1}, // inverted region
	}
	for len(queries) < 300 {
		queries = append(queries, randQuery(rng, bounds))
	}
	prefix := Word{W: -5, Bits: 3}
	var cur Cursor
	var words []Word
	var ids []int64
	var small, large, empty int
	for i, q := range queries {
		for j, idx := range indexes {
			raw, wantIO := raws[j](q)
			switch {
			case len(raw) == 0:
				empty++
			case len(raw) < hitSortCutoff:
				small++
			default:
				large++
			}
			want := sortCompact(raw)
			var io int64
			words, io = idx.SearchWords(q, append(words[:0], prefix), &cur)
			if io != wantIO || words[0] != prefix {
				t.Fatalf("%s query %d: SearchWords io %d (reference %d), first word %+v", idx.Name(), i, io, wantIO, words[0])
			}
			for k, w := range words[1:] {
				if w.Bits == 0 || (k > 0 && w.W <= words[k].W) {
					t.Fatalf("%s query %d: word %d %+v is empty or out of order", idx.Name(), i, k, w)
				}
			}
			if got := AppendIDs(nil, words[1:]); !equalIDs(got, want) {
				t.Fatalf("%s query %d: SearchWords holds %d ids, reference %d", idx.Name(), i, len(got), len(want))
			}
			ids, io = idx.SearchInto(q, ids[:0], &cur)
			if io != wantIO || !equalIDs(ids, want) {
				t.Fatalf("%s query %d: SearchInto %d ids io %d, reference %d ids io %d", idx.Name(), i, len(ids), io, len(want), wantIO)
			}
		}
	}
	if small == 0 || large == 0 || empty == 0 {
		t.Fatalf("vacuous: %d small, %d large and %d empty batches", small, large, empty)
	}
}
