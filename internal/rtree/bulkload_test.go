package rtree

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func randomItems(n int, dims int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		switch dims {
		case 2:
			items[i] = Item{Rect: randRect2D(rng, 1000), Data: int64(i)}
		case 3:
			x, y, w := rng.Float64()*1000, rng.Float64()*1000, rng.Float64()
			items[i] = Item{Rect: Box(x, x+rng.Float64()*10, y, y+rng.Float64()*10, w, w), Data: int64(i)}
		default:
			x, y, z, w := rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*100, rng.Float64()
			items[i] = Item{Rect: Box(x, x+5, y, y+5, z, z+5, w, w), Data: int64(i)}
		}
	}
	return items
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := BulkLoad(DefaultConfig(2), nil)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("len=%d height=%d", tr.Len(), tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadSmall(t *testing.T) {
	items := randomItems(7, 2, 1)
	tr := BulkLoad(DefaultConfig(2), items)
	if tr.Len() != 7 || tr.Height() != 1 {
		t.Fatalf("len=%d height=%d", tr.Len(), tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadValidAndComplete(t *testing.T) {
	for _, dims := range []int{2, 3, 4} {
		for _, n := range []int{21, 100, 5000, 20000} {
			items := randomItems(n, dims, int64(n+dims))
			tr := BulkLoad(DefaultConfig(dims), items)
			if tr.Len() != n {
				t.Fatalf("%dD n=%d: len=%d", dims, n, tr.Len())
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%dD n=%d: %v", dims, n, err)
			}
			seen := make(map[int64]bool, n)
			for _, d := range collect(tr, everything(dims)) {
				seen[d] = true
			}
			if len(seen) != n {
				t.Fatalf("%dD n=%d: a search of everything saw %d", dims, n, len(seen))
			}
		}
	}
}

func TestBulkLoadQueryMatchesLinearScan(t *testing.T) {
	items := randomItems(8000, 3, 3)
	tr := BulkLoad(DefaultConfig(3), items)
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 100; q++ {
		x0, y0 := rng.Float64()*800, rng.Float64()*800
		query := Box(x0, x0+rng.Float64()*200, y0, y0+rng.Float64()*200, 0, rng.Float64())
		want := map[int64]bool{}
		for _, it := range items {
			if query.intersects(&it.Rect, 3) {
				want[it.Data] = true
			}
		}
		got := collect(tr, query)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d want %d", q, len(got), len(want))
		}
		for _, d := range got {
			if !want[d] {
				t.Fatalf("query %d: stray item %d", q, d)
			}
		}
	}
}

func TestBulkLoadQueryIONotWorseThanInsertion(t *testing.T) {
	// STR packing should answer small windows with no more node reads than
	// the insertion-built tree (usually fewer).
	items := randomItems(20000, 2, 7)
	bulk := BulkLoad(DefaultConfig(2), items)
	ins := InsertLoad(DefaultConfig(2), items)
	rng := rand.New(rand.NewSource(8))
	var bulkIO, insIO int64
	var cur Cursor
	for q := 0; q < 200; q++ {
		x, y := rng.Float64()*950, rng.Float64()*950
		query := Box(x, x+30, y, y+30)
		_, io := bulk.SearchInto(query, &cur, nil)
		bulkIO += io
		_, io = ins.SearchInto(query, &cur, nil)
		insIO += io
	}
	if bulkIO > insIO {
		t.Errorf("bulk io %d above insertion io %d", bulkIO, insIO)
	}
}

func BenchmarkInsertBuild(b *testing.B) {
	items := randomItems(50000, 3, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InsertLoad(DefaultConfig(3), items)
	}
}

func BenchmarkBulkLoadBuild(b *testing.B) {
	items := randomItems(50000, 3, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(DefaultConfig(3), items)
	}
}

func BenchmarkSearchBulkLoaded(b *testing.B) {
	tr := BulkLoad(DefaultConfig(3), randomItems(100000, 3, 10))
	rng := rand.New(rand.NewSource(11))
	var cur Cursor
	var buf []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := rng.Float64()*950, rng.Float64()*950
		buf, _ = tr.SearchInto(Box(x, x+20, y, y+20, 0.5, 1.0), &cur, buf[:0])
	}
}

// gridItems is a city in miniature with every tie the real one has:
// buildings on a regular lot grid, each contributing several items that
// share one support box and take their value from a handful of levels,
// so centres collide in every dimension.
func gridItems(side, perLot int) []Item {
	items := make([]Item, 0, side*side*perLot)
	for i := 0; i < side*side; i++ {
		x, y := float64(i%side)*10, float64(i/side)*10
		for k := 0; k < perLot; k++ {
			w := float64(1+k%4) / 4
			items = append(items, Item{Rect: Box(x, x+6, y, y+6, w, w), Data: int64(len(items))})
		}
	}
	return items
}

// TestSortByCenterMatchesSortSlice pins the tie order of the key sort to
// that of sort.Slice over the items themselves, which is what STR
// tiling used before: an unstable sort's handling of equal centres
// decides which node an item lands in, and with it the node-read counts
// the paper's I/O figures are made of.
func TestSortByCenterMatchesSortSlice(t *testing.T) {
	all := gridItems(40, 5)
	rand.New(rand.NewSource(3)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	s := &strBuild{keys: make([]centerKey, len(all))}
	for _, n := range []int{0, 1, 2, 12, 13, 50, 51, 500, len(all)} {
		for d := 0; d < 3; d++ {
			perm := make([]int32, n)
			for i := range perm {
				perm[i] = int32(i)
			}
			want := slices.Clone(all[:n])
			sort.Slice(want, func(i, j int) bool { return want[i].Rect.center(d) < want[j].Rect.center(d) })
			s.sortByCenter(all, perm, d)
			for i := range want {
				if got := all[perm[i]].Data; got != want[i].Data {
					t.Fatalf("n=%d dim %d: position %d holds item %d, sort.Slice puts %d there",
						n, d, i, got, want[i].Data)
				}
			}
		}
	}
}

// TestBulkLoadLeafSequencePinned holds the whole builder to the tree it
// built before the key sort: the digest below is the leaf sequence of
// this data set under the previous builder (git f437fff).
func TestBulkLoadLeafSequencePinned(t *testing.T) {
	tr := BulkLoad(DefaultConfig(3), gridItems(48, 6))
	h := fnv.New64a()
	var b [8]byte
	for _, data := range tr.a.data { // the leaves' payloads, left to right
		binary.LittleEndian.PutUint64(b[:], uint64(data))
		h.Write(b[:])
	}
	const want = 0x3de551dd6d0b0b79
	if got := h.Sum64(); got != want {
		t.Fatalf("leaf sequence digest %#x, want %#x (tree shape moved: %d nodes, height %d)",
			got, uint64(want), tr.NumNodes(), tr.Height())
	}
}
