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
// allocates nothing — over the pointer nodes of a thawed tree and over
// the packed snapshot alike.
func TestSearchIntoAllocFree(t *testing.T) {
	tr, _ := randomTree(t, 5, 3000)
	var q Rect
	q.Lo[0], q.Hi[0] = 100, 700
	q.Lo[1], q.Hi[1] = 100, 700
	q.Lo[2], q.Hi[2] = 0, 1
	var cur Cursor
	var buf []int64
	buf, _ = tr.searchNodes(&q, &cur, buf[:0]) // warm the stack and buffer
	if allocs := testing.AllocsPerRun(100, func() {
		buf, _ = tr.searchNodes(&q, &cur, buf[:0])
	}); allocs != 0 {
		t.Fatalf("steady-state thawed search allocates %.1f times per run, want 0", allocs)
	}
	for tr.frozen.Load() == nil {
		buf, _ = tr.SearchInto(q, &cur, buf[:0])
	}
	buf, _ = tr.SearchInto(q, &cur, buf[:0]) // warm the queue
	if allocs := testing.AllocsPerRun(100, func() {
		buf, _ = tr.SearchInto(q, &cur, buf[:0])
	}); allocs != 0 {
		t.Fatalf("steady-state frozen SearchInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestDeleteReusesPathScratch is the regression test for the per-delete
// path allocation: heavy delete/reinsert churn must stay allocation-
// bounded on the find-leaf descent (the tree-owned scratch serves both
// insert and delete) and leave the tree valid. The churn also runs under
// `make race` with the rest of the suite.
func TestDeleteReusesPathScratch(t *testing.T) {
	tr, items := randomTree(t, 9, 2500)
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 4; round++ {
		perm := rng.Perm(len(items))[:500]
		for _, i := range perm {
			if !tr.Delete(items[i].Rect, items[i].Data) {
				t.Fatalf("round %d: delete %d failed", round, i)
			}
		}
		for _, i := range perm {
			tr.Insert(items[i].Rect, items[i].Data)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if tr.Len() != len(items) {
		t.Fatalf("len %d after churn, want %d", tr.Len(), len(items))
	}
	// The descent itself must not allocate: deleting and reinserting one
	// item reuses the tree-owned path. (Node splits/merges may allocate —
	// churn a single item so the structure stays put.)
	it := items[0]
	allocs := testing.AllocsPerRun(50, func() {
		if !tr.Delete(it.Rect, it.Data) {
			t.Fatal("steady-state delete failed")
		}
		tr.Insert(it.Rect, it.Data)
	})
	// insertWithReinsertion's queue and reinserted map still allocate per
	// logical insertion; the budget pins "no per-level path slices", not
	// absolute zero.
	if allocs > 4 {
		t.Fatalf("delete+insert churn allocates %.1f times per run, budget 4", allocs)
	}
}
