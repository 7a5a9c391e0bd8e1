package rtree

import (
	"math/rand"
	"sort"
	"testing"
)

func randRect2D(rng *rand.Rand, space float64) Rect {
	x, y := rng.Float64()*space, rng.Float64()*space
	w, h := rng.Float64()*space/20, rng.Float64()*space/20
	return Box(x, x+w, y, y+h)
}

func buildRandom(t testing.TB, cfg Config, n int, seed int64) (*Tree, []Rect) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := New(cfg)
	rects := make([]Rect, n)
	for i := 0; i < n; i++ {
		var r Rect
		switch cfg.Dims {
		case 2:
			r = randRect2D(rng, 1000)
		case 3:
			x, y, w := rng.Float64()*1000, rng.Float64()*1000, rng.Float64()
			r = Box(x, x+rng.Float64()*20, y, y+rng.Float64()*20, w, w)
		case 4:
			x, y, z, w := rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*100, rng.Float64()
			r = Box(x, x+rng.Float64()*20, y, y+rng.Float64()*20, z, z+rng.Float64()*5, w, w)
		default:
			r = Point(rng.Float64() * 1000)
		}
		rects[i] = r
		tr.Insert(r, int64(i))
	}
	return tr, rects
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Dims: 0, MaxEntries: 20},
		{Dims: 5, MaxEntries: 20},
		{Dims: 2, MaxEntries: 3},
		{Dims: 2, MaxEntries: 65},
		{Dims: 2, MaxEntries: 20, MinEntries: 15},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(3)
	if cfg.MaxEntries != 20 || cfg.PageBytes != 4096 || cfg.Variant != RStar {
		t.Errorf("default config %+v", cfg)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(DefaultConfig(2))
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("len=%d height=%d", tr.Len(), tr.Height())
	}
	if got := tr.Collect(Box(0, 100, 0, 100)); len(got) != 0 {
		t.Errorf("query on empty tree returned %v", got)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestInsertAndExactQuery(t *testing.T) {
	tr := New(DefaultConfig(2))
	tr.Insert(Box(10, 20, 10, 20), 7)
	got := tr.Collect(Box(15, 15, 15, 15))
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("got %v", got)
	}
	if got := tr.Collect(Box(30, 40, 30, 40)); len(got) != 0 {
		t.Fatalf("disjoint query returned %v", got)
	}
	// Touching edge counts (closed rectangles).
	if got := tr.Collect(Box(20, 25, 20, 25)); len(got) != 1 {
		t.Fatalf("edge-touching query returned %v", got)
	}
}

// TestQueryMatchesLinearScan is the central correctness property: for any
// data and any query, the tree must return exactly the items a brute-force
// scan returns.
func TestQueryMatchesLinearScan(t *testing.T) {
	for _, variant := range []Variant{RStar, Quadratic} {
		for _, dims := range []int{2, 3, 4} {
			cfg := DefaultConfig(dims)
			cfg.Variant = variant
			tr, rects := buildRandom(t, cfg, 3000, int64(dims)*17+int64(variant))
			if err := tr.Validate(); err != nil {
				t.Fatalf("%v %dD: %v", variant, dims, err)
			}
			rng := rand.New(rand.NewSource(99))
			for q := 0; q < 100; q++ {
				x0, y0 := rng.Float64()*800, rng.Float64()*800
				x1, y1 := x0+rng.Float64()*300, y0+rng.Float64()*300
				var query Rect
				switch dims {
				case 2:
					query = Box(x0, x1, y0, y1)
				case 3:
					query = Box(x0, x1, y0, y1, 0, rng.Float64())
				case 4:
					query = Box(x0, x1, y0, y1, 0, 100, rng.Float64(), 1)
				}
				want := map[int64]bool{}
				for i := range rects {
					if query.intersects(&rects[i], dims) {
						want[int64(i)] = true
					}
				}
				got := tr.Collect(query)
				if len(got) != len(want) {
					t.Fatalf("%v %dD query %d: got %d want %d", variant, dims, q, len(got), len(want))
				}
				for _, d := range got {
					if !want[d] {
						t.Fatalf("%v %dD query %d: unexpected item %d", variant, dims, q, d)
					}
				}
			}
		}
	}
}

func TestValidAfterManyInserts(t *testing.T) {
	cfg := DefaultConfig(2)
	tr, _ := buildRandom(t, cfg, 10000, 5)
	if tr.Len() != 10000 {
		t.Fatalf("len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Errorf("height %d suspiciously small for 10k items, fanout 20", tr.Height())
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr, _ := buildRandom(t, DefaultConfig(2), 1000, 3)
	count := 0
	tr.Search(Box(0, 1000, 0, 1000), func(Rect, int64) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop visited %d", count)
	}
}

// TestIOStatsAccumulate: every search adds its node reads and one query
// to the tree's counters; a caller measures a span of searches as the
// difference of two Stats snapshots.
func TestIOStatsAccumulate(t *testing.T) {
	tr, _ := buildRandom(t, DefaultConfig(2), 5000, 4)
	base := tr.Stats()
	tr.Count(Box(0, 100, 0, 100))
	s := tr.Stats()
	if s.Queries-base.Queries != 1 || s.NodesRead-base.NodesRead < 1 {
		t.Fatalf("stats after one query: %+v, before %+v", s, base)
	}
	io := tr.SearchCounted(Box(0, 100, 0, 100), func(Rect, int64) bool { return true })
	if io < 1 {
		t.Fatalf("counted io = %d", io)
	}
	if got := tr.Stats(); got.NodesRead != s.NodesRead+io || got.Queries != s.Queries+1 {
		t.Errorf("cumulative stats %+v, want io %d and queries %d", got, s.NodesRead+io, s.Queries+1)
	}
}

func TestSelectiveQueryTouchesFewerNodes(t *testing.T) {
	tr, _ := buildRandom(t, DefaultConfig(2), 20000, 6)
	small := tr.SearchCounted(Box(500, 510, 500, 510), func(Rect, int64) bool { return true })
	big := tr.SearchCounted(Box(0, 1000, 0, 1000), func(Rect, int64) bool { return true })
	if small >= big {
		t.Errorf("small query io %d not below full scan io %d", small, big)
	}
	if big < int64(tr.NumNodes()) {
		t.Errorf("full query read %d of %d nodes", big, tr.NumNodes())
	}
}

func TestRStarBeatsQuadraticOnIO(t *testing.T) {
	// The R* split heuristics should produce a tree with fewer node reads
	// for small window queries on clustered data. This is the ablation the
	// paper's choice of R*-tree rests on.
	mk := func(variant Variant) int64 {
		cfg := DefaultConfig(2)
		cfg.Variant = variant
		rng := rand.New(rand.NewSource(77))
		tr := New(cfg)
		// Clustered data: 100 clusters of 200 points.
		for c := 0; c < 100; c++ {
			cx, cy := rng.Float64()*1000, rng.Float64()*1000
			for i := 0; i < 200; i++ {
				x := cx + rng.NormFloat64()*5
				y := cy + rng.NormFloat64()*5
				tr.Insert(Box(x, x+0.5, y, y+0.5), int64(c*200+i))
			}
		}
		var io int64
		qrng := rand.New(rand.NewSource(5))
		for q := 0; q < 200; q++ {
			x, y := qrng.Float64()*1000, qrng.Float64()*1000
			io += tr.SearchCounted(Box(x, x+20, y, y+20), func(Rect, int64) bool { return true })
		}
		return io
	}
	rstar, quad := mk(RStar), mk(Quadratic)
	if rstar >= quad {
		t.Errorf("R* io %d not below quadratic io %d", rstar, quad)
	}
}

func TestScanVisitsEverything(t *testing.T) {
	tr, _ := buildRandom(t, DefaultConfig(3), 1234, 10)
	seen := map[int64]bool{}
	tr.Scan(func(_ Rect, d int64) bool {
		seen[d] = true
		return true
	})
	if len(seen) != 1234 {
		t.Errorf("scan saw %d items", len(seen))
	}
}

func TestDuplicateRects(t *testing.T) {
	tr := New(DefaultConfig(2))
	r := Box(5, 6, 5, 6)
	for i := 0; i < 100; i++ {
		tr.Insert(r, int64(i))
	}
	got := tr.Collect(r)
	if len(got) != 100 {
		t.Fatalf("got %d duplicates", len(got))
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, d := range got {
		if d != int64(i) {
			t.Fatalf("missing payload %d", i)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPointData(t *testing.T) {
	// Degenerate rectangles (points) are the naive index's storage format.
	rng := rand.New(rand.NewSource(11))
	tr := New(DefaultConfig(4))
	type pt struct{ x, y, z, w float64 }
	pts := make([]pt, 5000)
	for i := range pts {
		pts[i] = pt{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 10, rng.Float64()}
		tr.Insert(Point(pts[i].x, pts[i].y, pts[i].z, pts[i].w), int64(i))
	}
	q := Box(20, 60, 20, 60, 0, 10, 0.5, 1.0)
	want := 0
	for _, p := range pts {
		if p.x >= 20 && p.x <= 60 && p.y >= 20 && p.y <= 60 && p.w >= 0.5 {
			want++
		}
	}
	if got := tr.Count(q); got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

func TestRectHelpers(t *testing.T) {
	r := Box(0, 10, 0, 5)
	if a := r.area(2); a != 50 {
		t.Errorf("area = %v", a)
	}
	if m := r.margin(2); m != 15 {
		t.Errorf("margin = %v", m)
	}
	s := Box(5, 15, 0, 5)
	if ov := r.overlap(&s, 2); ov != 25 {
		t.Errorf("overlap = %v", ov)
	}
	if e := r.enlargement(&s, 2); e != 25 {
		t.Errorf("enlargement = %v", e)
	}
	u := r.union(&s, 2)
	if u.area(2) != 75 {
		t.Errorf("union area = %v", u.area(2))
	}
	if !u.contains(&r, 2) || !u.contains(&s, 2) {
		t.Error("union should contain operands")
	}
	if r.centerDist(&s, 2) != 25 {
		t.Errorf("centerDist = %v", r.centerDist(&s, 2))
	}
}

func TestBoxPanicsOnInvertedInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Box(5, 1)
}

func TestVariantString(t *testing.T) {
	if RStar.String() == "" || Quadratic.String() == "" || Variant(9).String() == "" {
		t.Error("empty variant strings")
	}
}
