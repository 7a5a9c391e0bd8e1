package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// propItems draws n random boxes over the unit hypercube scaled to
// 1000 in the spatial dimensions, with a point value in the last one —
// the shape of the coefficient indexes.
func propItems(rng *rand.Rand, n, dims int) []Item {
	items := make([]Item, n)
	for i := range items {
		var r Rect
		for d := 0; d < dims-1; d++ {
			lo := rng.Float64() * 1000
			r.Lo[d], r.Hi[d] = lo, lo+rng.Float64()*40
		}
		w := rng.Float64()
		r.Lo[dims-1], r.Hi[dims-1] = w, w
		items[i] = Item{Rect: r, Data: int64(i)}
	}
	return items
}

func propQuery(rng *rand.Rand, dims int) Rect {
	var q Rect
	for d := 0; d < dims-1; d++ {
		lo := rng.Float64() * 1000
		q.Lo[d], q.Hi[d] = lo, lo+rng.Float64()*300
	}
	q.Lo[dims-1], q.Hi[dims-1] = rng.Float64()*0.5, 1
	return q
}

// everything is a query covering every item propItems can draw, so one
// search reads every node of the tree.
func everything(dims int) Rect {
	var q Rect
	for d := 0; d < dims; d++ {
		q.Lo[d], q.Hi[d] = -1, 2000
	}
	return q
}

// recursive answers q, ids sorted, with the recursive walk over pointer
// nodes: the oracle every SearchInto is held to.
func recursive(p *pointerTree, q Rect) (ids []int64, io int64) {
	io = p.search(q, func(_ Rect, data int64) { ids = append(ids, data) })
	slices.Sort(ids)
	return ids, io
}

// checkSearchInto holds tr's SearchInto to the recursive walk of ref,
// pointer nodes of the same tree.
func checkSearchInto(t *testing.T, tr *Tree, ref *pointerTree, q Rect, cur *Cursor, label string) {
	t.Helper()
	want, wantIO := recursive(ref, q)
	got, gotIO := tr.SearchInto(q, cur, nil)
	slices.Sort(got)
	if gotIO != wantIO {
		t.Fatalf("%s: SearchInto read %d nodes, recursive walk %d", label, gotIO, wantIO)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: SearchInto %d hits, recursive walk %d (sets differ)", label, len(got), len(want))
	}
}

// TestFrozenSearchMatchesRecursive is the arena's equivalence
// property: over bulk-loaded and insert-built trees of every
// dimensionality, both variants, and sizes from empty through one leaf
// to several levels, SearchInto returns the recursive walk's id set and
// node-read count — on the arena the build wrote, and on the one a
// thawed copy freezes into after more inserts, held there to the walk
// of the pointer nodes it froze.
func TestFrozenSearchMatchesRecursive(t *testing.T) {
	for _, dims := range []int{2, 3, 4} {
		for _, variant := range []Variant{RStar, Quadratic} {
			for _, n := range []int{0, 1, 7, 20, 21, 400, 3000} {
				for _, bulk := range []bool{true, false} {
					label := fmt.Sprintf("%dD %v n=%d bulk=%v", dims, variant, n, bulk)
					rng := rand.New(rand.NewSource(int64(dims*100000 + n*10 + int(variant))))
					cfg := Config{Dims: dims, MaxEntries: 20, Variant: variant}
					items := propItems(rng, n+5, dims)
					var tr *Tree
					if bulk {
						tr = BulkLoad(cfg, items[:n])
					} else {
						tr = InsertLoad(cfg, items[:n])
					}
					if len(tr.a.nodes) != tr.NumNodes() || len(tr.a.data) != n {
						t.Fatalf("%s: arena holds %d nodes / %d payloads, tree %d / %d",
							label, len(tr.a.nodes), len(tr.a.data), tr.NumNodes(), n)
					}
					var cur Cursor
					ref := thaw(tr)
					checkSearchInto(t, tr, ref, everything(dims), &cur, label+" first")
					for q := 0; q < 40; q++ {
						checkSearchInto(t, tr, ref, propQuery(rng, dims), &cur, label+" frozen")
					}
					// The thawed copy takes the inserts and freezes into
					// a new tree.
					p := thaw(tr)
					for _, it := range items[n:] {
						p.insert(it.Rect, it.Data)
					}
					tr = p.freeze()
					for q := 0; q < 5; q++ {
						checkSearchInto(t, tr, p, propQuery(rng, dims), &cur, label+" refrozen")
					}
					if len(tr.a.data) != n+5 {
						t.Fatalf("%s: %d payloads after the inserts, want %d", label, len(tr.a.data), n+5)
					}
				}
			}
		}
	}
}

// TestSearchIntoStatsMatchRecursive pins the I/O count: a fixed query
// list reads the same total of nodes through a bulk-loaded tree's arena
// as through the recursive walk of its thawed copy.
func TestSearchIntoStatsMatchRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := BulkLoad(DefaultConfig(3), propItems(rng, 5000, 3))
	qs := make([]Rect, 60)
	for i := range qs {
		qs[i] = propQuery(rng, 3)
	}
	var cur Cursor
	var buf []int64
	var packed, walked int64
	for _, q := range qs {
		var io int64
		buf, io = tr.SearchInto(q, &cur, buf[:0])
		packed += io
	}
	ref := thaw(tr)
	for _, q := range qs {
		walked += ref.search(q, func(Rect, int64) {})
	}
	if packed != walked || packed < int64(len(qs)) {
		t.Fatalf("arena searches read %d nodes, recursive walk %d", packed, walked)
	}
}

// TestConcurrentSearchRefreezes races readers over one insert-built
// tree: every answer stays right, and the race detector has nothing to
// say about readers sharing the arena.
func TestConcurrentSearchRefreezes(t *testing.T) {
	const dims = 3
	rng := rand.New(rand.NewSource(29))
	tr := InsertLoad(Config{Dims: dims, MaxEntries: 20}, propItems(rng, 4000, dims))
	qs := make([]Rect, 64)
	want := make([][]int64, len(qs))
	ref := thaw(tr)
	for i := range qs {
		qs[i] = propQuery(rng, dims)
		want[i], _ = recursive(ref, qs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var cur Cursor
			var buf []int64
			for round := 0; round < 20; round++ {
				for i := range qs {
					j := (i + g*7) % len(qs)
					buf, _ = tr.SearchInto(qs[j], &cur, buf[:0])
					slices.Sort(buf)
					if !slices.Equal(buf, want[j]) {
						t.Errorf("reader %d query %d: %d hits, want %d", g, j, len(buf), len(want[j]))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// arenaQueries draws the queries that sit on the packed walk's edges:
// the MBR of some node and of some item exactly (containment on the
// boundary), each one ulp larger and one ulp smaller, a thin sliver
// across each dimension, thin bands of the last (value) dimension,
// points, inverted boxes, and the usual random windows.
func arenaQueries(rng *rand.Rand, p *pointerTree, items []Item) []Rect {
	dims := p.cfg.Dims
	rects := []Rect{propQuery(rng, dims)} // so an empty tree has one too
	var walk func(n *node)
	walk = func(n *node) {
		if len(n.entries) > 0 {
			rects = append(rects, n.mbr(dims))
		}
		if !n.leaf {
			for i := range n.entries {
				walk(n.entries[i].child)
			}
		}
	}
	walk(p.root)
	for i := 0; i < 8 && len(items) > 0; i++ {
		rects = append(rects, items[rng.Intn(len(items))].Rect)
	}
	var qs []Rect
	for i := 0; i < 12; i++ {
		r := rects[rng.Intn(len(rects))]
		grown, shrunk := r, r
		for d := 0; d < dims; d++ {
			grown.Lo[d], grown.Hi[d] = math.Nextafter(r.Lo[d], math.Inf(-1)), math.Nextafter(r.Hi[d], math.Inf(1))
			shrunk.Lo[d], shrunk.Hi[d] = math.Nextafter(r.Lo[d], math.Inf(1)), math.Nextafter(r.Hi[d], math.Inf(-1))
		}
		qs = append(qs, r, grown, shrunk)
	}
	for d := 0; d < dims; d++ {
		for i := 0; i < 3; i++ {
			q := everything(dims)
			r := rects[rng.Intn(len(rects))]
			at := r.Lo[d] + rng.Float64()*(r.Hi[d]-r.Lo[d])
			q.Lo[d], q.Hi[d] = at, at+(r.Hi[d]-r.Lo[d])*0.01
			qs = append(qs, q)
		}
	}
	for i := 0; i < 4; i++ {
		q := propQuery(rng, dims)
		w := rng.Float64()
		q.Lo[dims-1], q.Hi[dims-1] = w, w+0.03
		qs = append(qs, q)
	}
	for i := 0; i < 4; i++ {
		var q Rect
		if len(items) > 0 && i%2 == 0 {
			q = items[rng.Intn(len(items))].Rect
			q.Hi = q.Lo
		} else {
			for d := 0; d < dims; d++ {
				q.Lo[d] = rng.Float64() * 1000
				q.Hi[d] = q.Lo[d]
			}
		}
		qs = append(qs, q)
	}
	for i := 0; i < 4; i++ {
		q := propQuery(rng, dims)
		d := rng.Intn(dims)
		q.Lo[d], q.Hi[d] = q.Hi[d], q.Lo[d]
		qs = append(qs, q)
		qs = append(qs, propQuery(rng, dims))
	}
	return append(qs, everything(dims))
}

// checkArena holds the packed walk of tr's arena to the recursive walk
// over its thawed copy on every arenaQueries query: the same id set and
// the same node-read count. Where the AVX2 kernel runs, the mask walk
// must also give the survivor walk's buffer and queue element for
// element.
func checkArena(t *testing.T, rng *rand.Rand, tr *Tree, items []Item, label string) {
	t.Helper()
	var cur, ref Cursor
	walked := thaw(tr)
	qs := arenaQueries(rng, walked, items)
	a := tr.a
	for _, q := range qs {
		want, wantIO := recursive(walked, q)
		got, gotIO := a.search(&q, &cur, nil)
		if useKernel {
			buf, io := a.searchSurvivors(&q, &ref, nil)
			if io != gotIO || !slices.Equal(got, buf) || !slices.Equal(cur.idx, ref.idx) {
				t.Fatalf("%s: %v: mask walk %d hits / %d nodes / %d queued, survivor walk %d / %d / %d (or sequences differ)",
					label, q, len(got), gotIO, len(cur.idx), len(buf), io, len(ref.idx))
			}
		}
		slices.Sort(got)
		if gotIO != wantIO || !slices.Equal(got, want) {
			t.Fatalf("%s: %v: arena %d hits / %d nodes, recursive %d / %d",
				label, q, len(got), gotIO, len(want), wantIO)
		}
	}
}

// arenaTree builds a tree of n propItems, bulk-loaded or inserted one
// by one. With flat ≥ 0 every item shares one value in dimension flat,
// so the root has no extent there.
func arenaTree(rng *rand.Rand, dims, n int, bulk bool, flat int) (*Tree, []Item) {
	items := propItems(rng, n, dims)
	if flat >= 0 {
		for i := range items {
			items[i].Rect.Lo[flat], items[i].Rect.Hi[flat] = 0.5, 0.5
		}
	}
	cfg := Config{Dims: dims, MaxEntries: 20}
	if bulk {
		return BulkLoad(cfg, items), items
	}
	return InsertLoad(cfg, items), items
}

// TestArenaSearchMatchesRecursive is the packed walk's boundary
// property: emitting contained subtrees whole and filtering in the
// query's dimension order change neither the id set nor the node-read
// count, for queries on, just inside and just outside node boundaries,
// slivers, bands, points and inverted boxes, over trees of 2–4
// dimensions, bulk-loaded and insert-built, some with a dimension in
// which every item has one value.
func TestArenaSearchMatchesRecursive(t *testing.T) {
	for _, dims := range []int{2, 3, 4} {
		for _, n := range []int{0, 1, 20, 21, 400, 3000} {
			for _, bulk := range []bool{true, false} {
				for _, flat := range []int{-1, 0, dims - 1} {
					label := fmt.Sprintf("%dD n=%d bulk=%v flat=%d", dims, n, bulk, flat)
					rng := rand.New(rand.NewSource(int64(dims*100000 + n*10 + flat + 1)))
					tr, items := arenaTree(rng, dims, n, bulk, flat)
					checkArena(t, rng, tr, items, label)
				}
			}
		}
	}
}

// FuzzArenaSearch is TestArenaSearchMatchesRecursive over fuzzed trees:
// the seed draws the items and queries, dims is 2–4, n is up to 3 000,
// and flags choose bulk loading (bit 0) and a flat dimension (bit 1,
// which one in the bits above).
func FuzzArenaSearch(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(400), uint8(1))
	f.Add(int64(2), uint8(0), uint16(21), uint8(0))
	f.Add(int64(3), uint8(2), uint16(3000), uint8(3))
	f.Add(int64(4), uint8(1), uint16(1), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, d uint8, n uint16, flags uint8) {
		dims := 2 + int(d%3)
		flat := -1
		if flags&2 != 0 {
			flat = int(flags>>2) % dims
		}
		rng := rand.New(rand.NewSource(seed))
		tr, items := arenaTree(rng, dims, int(n)%3001, flags&1 != 0, flat)
		checkArena(t, rng, tr, items, fmt.Sprintf("%dD n=%d flags=%#x", dims, int(n)%3001, flags))
	})
}

// TestArenaOrder pins the filter's dimension ranking on the two query
// shapes of a pedestrian's frame: a band thin in w ranks w first, a
// sliver thin in x or y ranks that dimension first, and a dimension the
// query misses outright ranks ahead of everything.
func TestArenaOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := BulkLoad(Config{Dims: 3, MaxEntries: 20}, propItems(rng, 2000, 3)).a
	for _, c := range []struct {
		name  string
		q     Rect
		first int
	}{
		{"band", Box(100, 900, 100, 900, 0.40, 0.45), 2},
		{"x sliver", Box(500, 520, 0, 1000, 0.2, 1), 0},
		{"y sliver", Box(0, 1000, 500, 520, 0.2, 1), 1},
		{"miss in y", Box(0, 1000, 5000, 6000, 0.9, 1), 1},
	} {
		if ord := a.order(&c.q); ord[0] != c.first {
			t.Errorf("%s: order %v, want dimension %d first", c.name, ord[:3], c.first)
		}
	}
}

// TestFreezeMatchesBulkLoad holds the arena writer's two feeders to each
// other: freezing the pointer nodes thawed from a bulk-loaded tree
// writes the bulk load's arena again, bit for bit.
func TestFreezeMatchesBulkLoad(t *testing.T) {
	for _, dims := range []int{2, 3, 4} {
		for _, n := range []int{0, 1, 20, 21, 400, 3000} {
			rng := rand.New(rand.NewSource(int64(dims*10000 + n)))
			tr := BulkLoad(Config{Dims: dims, MaxEntries: 20}, propItems(rng, n, dims))
			ref := thaw(tr).freeze()
			if err := ref.Validate(); err != nil {
				t.Fatalf("%dD n=%d: refrozen tree: %v", dims, n, err)
			}
			if got, want := ArenaDigest(ref), ArenaDigest(tr); got != want {
				t.Fatalf("%dD n=%d: frozen pointer nodes digest %#x, bulk-loaded arena %#x", dims, n, got, want)
			}
		}
	}
}

// TestValidateChecksArena damages a bulk-loaded tree's arena one field
// at a time — a child index, a payload index, a run, a bound, the root
// MBR, a node's fanout, the slot list — and Validate must refuse each,
// with an error, not a panic.
func TestValidateChecksArena(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := BulkLoad(Config{Dims: 3, MaxEntries: 20}, propItems(rng, 3000, 3))
	good := tr.a
	leaf := good.leaf0 + 3
	for name, damage := range map[string]func(a *arena){
		"child index":  func(a *arena) { a.nodes[1].first++ },
		"payload":      func(a *arena) { a.nodes[leaf].first++ },
		"run":          func(a *arena) { a.runs[1].nodes++ },
		"leaf run":     func(a *arena) { a.runs[leaf].hi-- },
		"bound":        func(a *arena) { a.bounds[2*3*len(a.all)] -= 1000 }, // node 1's first entry in x
		"root MBR":     func(a *arena) { a.root.Hi[0]++ },
		"fanout":       func(a *arena) { a.nodes[leaf].n = 21 },
		"leaf depth":   func(a *arena) { a.leaf0-- },
		"payload list": func(a *arena) { a.data = a.data[:len(a.data)-1] },
		"slot list":    func(a *arena) { a.all[3] = 0 },
		"huge fanout":  func(a *arena) { a.nodes[0].n = 1 << 30 },
	} {
		a := *good
		a.all, a.nodes, a.runs = slices.Clone(good.all), slices.Clone(good.nodes), slices.Clone(good.runs)
		a.bounds, a.data = slices.Clone(good.bounds), slices.Clone(good.data)
		damage(&a)
		tr.a = &a
		if err := tr.Validate(); err == nil {
			t.Errorf("%s damaged: Validate found nothing", name)
		}
	}
	tr.a = good
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
