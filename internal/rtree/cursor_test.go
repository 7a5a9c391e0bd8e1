package rtree

import (
	"math/rand"
	"slices"
	"testing"
)

func randomTree(t *testing.T, seed int64, n int) (*Tree, []Item) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		w, h := rng.Float64()*60, rng.Float64()*60
		var r Rect
		r.Lo[0], r.Hi[0] = x, x+w
		r.Lo[1], r.Hi[1] = y, y+h
		r.Lo[2], r.Hi[2] = rng.Float64(), 1
		items[i] = Item{Rect: r, Data: int64(i)}
	}
	tr := New(Config{Dims: 3, MaxEntries: 20})
	for _, it := range items {
		tr.Insert(it.Rect, it.Data)
	}
	return tr, items
}

// TestSearchIntoMatchesSearch pins the cursor traversal to the recursive
// oracle: same hit set (order-insensitive) and the same node I/O for
// every query, across incrementally built and bulk-loaded trees.
func TestSearchIntoMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	grown, items := randomTree(t, 11, 2000)
	bulk := BulkLoad(Config{Dims: 3, MaxEntries: 20}, items)
	var cur Cursor
	var buf []int64
	for _, tr := range []*Tree{grown, bulk} {
		for q := 0; q < 200; q++ {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			var r Rect
			r.Lo[0], r.Hi[0] = x, x+rng.Float64()*200
			r.Lo[1], r.Hi[1] = y, y+rng.Float64()*200
			r.Lo[2], r.Hi[2] = 0, rng.Float64()
			var want []int64
			wantIO := tr.SearchCounted(r, func(_ Rect, data int64) bool {
				want = append(want, data)
				return true
			})
			var gotIO int64
			buf, gotIO = tr.SearchInto(r, &cur, buf[:0])
			if gotIO != wantIO {
				t.Fatalf("query %d: SearchInto read %d nodes, Search read %d", q, gotIO, wantIO)
			}
			got := slices.Clone(buf)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("query %d: SearchInto %d hits, Search %d (sets differ)", q, len(got), len(want))
			}
		}
	}
}

// TestSearchIntoAllocFree pins the zero-allocation contract: once the
// cursor and the result buffer have warmed up, a steady-state SearchInto
// allocates nothing.
func TestSearchIntoAllocFree(t *testing.T) {
	tr, _ := randomTree(t, 5, 3000)
	var q Rect
	q.Lo[0], q.Hi[0] = 100, 700
	q.Lo[1], q.Hi[1] = 100, 700
	q.Lo[2], q.Hi[2] = 0, 1
	var cur Cursor
	var buf []int64
	buf, _ = tr.SearchInto(q, &cur, buf[:0]) // freeze, warm the queue and buffer
	if allocs := testing.AllocsPerRun(100, func() {
		buf, _ = tr.SearchInto(q, &cur, buf[:0])
	}); allocs != 0 {
		t.Fatalf("steady-state SearchInto allocates %.1f times per run, want 0", allocs)
	}
}
