package index

import (
	"math/rand"
	"testing"

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
