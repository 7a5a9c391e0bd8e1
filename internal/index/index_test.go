package index

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/rtree"
	"repro/internal/wavelet"
)

// testStore builds a small city: n buildings on a grid inside a 1000×1000
// space, decomposed to 3 levels.
func testStore(t testing.TB, n int, seed int64) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]*wavelet.Decomposition, n)
	for i := 0; i < n; i++ {
		ground := geom.V2(rng.Float64()*900+50, rng.Float64()*900+50)
		s := mesh.RandomBuilding(rng, ground, mesh.DefaultBuildingSpec())
		objs[i] = wavelet.Decompose(int32(i), mesh.BaseMeshFor(s), s, 3)
	}
	return NewStore(objs)
}

func TestStoreIDsRoundtrip(t *testing.T) {
	s := testStore(t, 5, 1)
	for obj := int32(0); obj < 5; obj++ {
		d := s.Objects[obj]
		for v := int32(0); v < int32(len(d.Coeffs)); v++ {
			id := s.ID(obj, v)
			c := MustCoeff(s, id)
			if c.Object != obj || c.Vertex != v {
				t.Fatalf("roundtrip failed: id %d → obj %d vertex %d", id, c.Object, c.Vertex)
			}
		}
	}
	if s.NumCoeffs() != int64(5*len(s.Objects[0].Coeffs)) {
		t.Errorf("NumCoeffs = %d", s.NumCoeffs())
	}
	if s.SizeBytes() != s.NumCoeffs()*wavelet.WireBytes {
		t.Errorf("SizeBytes = %d", s.SizeBytes())
	}
}

func TestStoreGlobalIDsDense(t *testing.T) {
	s := testStore(t, 3, 2)
	seen := make(map[int64]bool)
	for obj := int32(0); obj < 3; obj++ {
		for v := 0; v < len(s.Objects[obj].Coeffs); v++ {
			id := s.ID(obj, int32(v))
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
		}
	}
	if int64(len(seen)) != s.NumCoeffs() {
		t.Fatalf("ids not dense: %d of %d", len(seen), s.NumCoeffs())
	}
	for id := int64(0); id < s.NumCoeffs(); id++ {
		if !seen[id] {
			t.Fatalf("id %d missing", id)
		}
	}
}

func TestLayoutRects(t *testing.T) {
	s := testStore(t, 1, 3)
	c := &s.Objects[0].Coeffs[10]
	r3 := XYW.supportRect(c)
	if r3.Lo[2] != c.Value || r3.Hi[2] != c.Value {
		t.Errorf("xyw support w-band = [%v,%v]", r3.Lo[2], r3.Hi[2])
	}
	r4 := XYZW.supportRect(c)
	if r4.Lo[3] != c.Value || r4.Lo[2] != c.Support.Min.Z {
		t.Errorf("xyzw support = %v", r4)
	}
	p := XYW.pointRect(c)
	if p.Lo != p.Hi {
		t.Errorf("point rect not degenerate: %v", p)
	}
	if XYW.Dims() != 3 || XYZW.Dims() != 4 {
		t.Error("layout dims wrong")
	}
}

// referenceMotionAware answers a query by brute force: every coefficient
// whose support-region footprint intersects the window with value in band.
func referenceMotionAware(s *Store, layout Layout, q Query) map[int64]bool {
	out := make(map[int64]bool)
	for _, d := range s.Objects {
		for i := range d.Coeffs {
			c := &d.Coeffs[i]
			if c.Value < q.WMin || c.Value > q.WMax {
				continue
			}
			if layout == XYW {
				if c.Support.XY().Intersects(q.Region) {
					out[s.ID(c.Object, c.Vertex)] = true
				}
			} else {
				if c.Support.Intersects(geom.Prism(q.Region, q.ZMin, q.ZMax)) {
					out[s.ID(c.Object, c.Vertex)] = true
				}
			}
		}
	}
	return out
}

func TestMotionAwareMatchesReference(t *testing.T) {
	s := testStore(t, 10, 4)
	for _, layout := range []Layout{XYW, XYZW} {
		idx := NewMotionAware(s, layout, rtree.Config{})
		if idx.Len() != int(s.NumCoeffs()) {
			t.Fatalf("%v: indexed %d of %d", layout, idx.Len(), s.NumCoeffs())
		}
		if err := idx.Tree().Validate(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 50; trial++ {
			x, y := rng.Float64()*900, rng.Float64()*900
			q := Query{
				Region: geom.R2(x, y, x+rng.Float64()*200, y+rng.Float64()*200),
				ZMin:   0, ZMax: 100,
				WMin: rng.Float64() * 0.5,
				WMax: 1.0,
			}
			ids, io := idx.Search(q)
			if io < 1 {
				t.Fatalf("io = %d", io)
			}
			want := referenceMotionAware(s, layout, q)
			if len(ids) != len(want) {
				t.Fatalf("%v trial %d: got %d want %d", layout, trial, len(ids), len(want))
			}
			for _, id := range ids {
				if !want[id] {
					t.Fatalf("%v trial %d: unexpected id %d", layout, trial, id)
				}
			}
		}
	}
}

func TestMotionAwareValueBands(t *testing.T) {
	s := testStore(t, 4, 6)
	idx := NewMotionAware(s, XYW, rtree.Config{})
	all := geom.R2(0, 0, 1000, 1000)
	// Full resolution: everything.
	ids, _ := idx.Search(Query{Region: all, WMin: 0, WMax: 1})
	if int64(len(ids)) != s.NumCoeffs() {
		t.Fatalf("full-res query returned %d of %d", len(ids), s.NumCoeffs())
	}
	// Coarsest resolution: only value-1.0 coefficients, which include every
	// base vertex.
	ids, _ = idx.Search(Query{Region: all, WMin: 1, WMax: 1})
	baseCount := 0
	for _, d := range s.Objects {
		baseCount += len(d.LevelOf(wavelet.BaseLevel))
	}
	if len(ids) < baseCount {
		t.Fatalf("coarsest query returned %d, fewer than %d base vertices", len(ids), baseCount)
	}
	for _, id := range ids {
		if MustCoeff(s, id).Value != 1.0 {
			t.Fatalf("coarsest query returned value %v", MustCoeff(s, id).Value)
		}
	}
	// Monotone: higher WMin ⇒ fewer results.
	prev := int(s.NumCoeffs()) + 1
	for _, w := range []float64{0, 0.25, 0.5, 0.75, 1} {
		ids, _ := idx.Search(Query{Region: all, WMin: w, WMax: 1})
		if len(ids) > prev {
			t.Fatalf("results not monotone at wmin %v", w)
		}
		prev = len(ids)
	}
}

func TestProgressiveBandRetrievalDisjoint(t *testing.T) {
	// §VI-B progressive scenario: a client holding w ≥ 0.7 issues
	// Q(R, 0.7, 0.0) for the rest. The two bands must partition the full
	// set — no duplicates, nothing missing.
	s := testStore(t, 4, 7)
	idx := NewMotionAware(s, XYW, rtree.Config{})
	region := geom.R2(100, 100, 700, 700)
	coarse, _ := idx.Search(Query{Region: region, WMin: 0.7, WMax: 1})
	fine, _ := idx.Search(Query{Region: region, WMin: 0, WMax: 0.6999999})
	full, _ := idx.Search(Query{Region: region, WMin: 0, WMax: 1})
	seen := make(map[int64]bool)
	for _, id := range coarse {
		seen[id] = true
	}
	for _, id := range fine {
		if seen[id] {
			t.Fatalf("id %d in both bands", id)
		}
		seen[id] = true
	}
	if len(seen) != len(full) {
		t.Fatalf("bands cover %d, full query %d", len(seen), len(full))
	}
}

func TestNaiveReturnsInWindowPlusNeighbors(t *testing.T) {
	s := testStore(t, 6, 8)
	idx := NewNaive(s, XYW, rtree.Config{})
	if err := idx.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		x, y := rng.Float64()*900, rng.Float64()*900
		q := Query{
			Region: geom.R2(x, y, x+150, y+150),
			WMin:   rng.Float64() * 0.3, WMax: 1.0,
		}
		ids, _ := idx.Search(q)
		got := make(map[int64]bool, len(ids))
		for _, id := range ids {
			if got[id] {
				t.Fatalf("duplicate id %d", id)
			}
			got[id] = true
		}
		// Reference: in-window points plus their neighbors (within band).
		inWin := make(map[int64]bool)
		for _, d := range s.Objects {
			for i := range d.Coeffs {
				c := &d.Coeffs[i]
				if c.Value >= q.WMin && c.Value <= q.WMax && q.Region.Contains(c.Pos.XY()) {
					inWin[s.ID(c.Object, c.Vertex)] = true
				}
			}
		}
		want := make(map[int64]bool)
		for id := range inWin {
			want[id] = true
			c := MustCoeff(s, id)
			for _, nb := range s.Neighbors(c.Object, c.Vertex) {
				nc := MustCoeff(s, s.ID(c.Object, nb))
				if nc.Value >= q.WMin && nc.Value <= q.WMax {
					want[s.ID(c.Object, nb)] = true
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing id %d", trial, id)
			}
		}
	}
}

func TestNaiveCostsMoreIO(t *testing.T) {
	// The headline claim of §VII-D: the motion-aware index needs less I/O
	// than the naive method for the same windows, increasingly so for
	// larger queries.
	s := testStore(t, 20, 10)
	ma := NewMotionAware(s, XYW, rtree.Config{})
	nv := NewNaive(s, XYW, rtree.Config{})
	rng := rand.New(rand.NewSource(11))
	var maIO, nvIO int64
	for trial := 0; trial < 40; trial++ {
		x, y := rng.Float64()*800, rng.Float64()*800
		q := Query{Region: geom.R2(x, y, x+200, y+200), WMin: 0, WMax: 1}
		_, io1 := ma.Search(q)
		_, io2 := nv.Search(q)
		maIO += io1
		nvIO += io2
	}
	if maIO >= nvIO {
		t.Errorf("motion-aware io %d not below naive io %d", maIO, nvIO)
	}
}

func TestNaiveEmptyWindow(t *testing.T) {
	s := testStore(t, 3, 12)
	idx := NewNaive(s, XYW, rtree.Config{})
	ids, io := idx.Search(Query{Region: geom.R2(-500, -500, -400, -400), WMin: 0, WMax: 1})
	if len(ids) != 0 {
		t.Fatalf("empty window returned %d ids", len(ids))
	}
	if io < 1 {
		t.Fatalf("io = %d", io)
	}
}

func TestObjectIndex(t *testing.T) {
	s := testStore(t, 15, 13)
	oi := NewObjectIndex(s, rtree.Config{})
	if oi.Len() != 15 {
		t.Fatalf("indexed %d objects", oi.Len())
	}
	// Full-space query returns every object and therefore every coefficient.
	ids, io := oi.Search(Query{Region: geom.R2(-100, -100, 1100, 1100)})
	if int64(len(ids)) != s.NumCoeffs() {
		t.Fatalf("full query expanded to %d of %d coefficients", len(ids), s.NumCoeffs())
	}
	if io < 1 {
		t.Fatal("no io counted")
	}
	// A window hits exactly the objects whose bounds intersect it.
	region := geom.R2(200, 200, 600, 600)
	objs, _ := oi.SearchObjects(region)
	want := 0
	for _, d := range s.Objects {
		if d.Bounds().XY().Intersects(region) {
			want++
		}
	}
	if len(objs) != want {
		t.Fatalf("got %d objects want %d", len(objs), want)
	}
}

func TestEnsureNeighborsRequiredForNaive(t *testing.T) {
	s := testStore(t, 2, 14)
	s.DropFinals()
	defer func() {
		if recover() == nil {
			t.Error("expected panic when final meshes are gone")
		}
	}()
	NewNaive(s, XYW, rtree.Config{})
}

func TestDropFinalsAfterNeighborsIsSafe(t *testing.T) {
	s := testStore(t, 2, 15)
	idx := NewNaive(s, XYW, rtree.Config{})
	s.DropFinals() // neighbor lists already cached
	ids, _ := idx.Search(Query{Region: geom.R2(0, 0, 1000, 1000), WMin: 0, WMax: 1})
	if len(ids) == 0 {
		t.Fatal("search failed after DropFinals")
	}
}

func TestIndexNames(t *testing.T) {
	s := testStore(t, 1, 16)
	if NewMotionAware(s, XYW, rtree.Config{}).Name() == "" {
		t.Error("empty name")
	}
	if NewNaive(s, XYZW, rtree.Config{}).Name() == "" {
		t.Error("empty name")
	}
	if NewObjectIndex(s, rtree.Config{}).Name() == "" {
		t.Error("empty name")
	}
}

// randomQueries builds a reproducible batch of window queries spanning
// degenerate, tiny, and space-covering windows with varied value bands.
func randomQueries(seed int64, n int) []Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]Query, n)
	for i := range qs {
		x, y := rng.Float64()*900, rng.Float64()*900
		w, h := rng.Float64()*300, rng.Float64()*300
		wmin := rng.Float64()
		wmax := wmin + rng.Float64()*(1-wmin)
		qs[i] = Query{
			Region: geom.R2(x, y, x+w, y+h),
			ZMin:   0, ZMax: rng.Float64() * 120,
			WMin: wmin, WMax: wmax,
		}
	}
	return qs
}

func sortedIDs(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestConcurrentSearchEqualsSerial is the read-path property test: for
// random coefficient sets and random query batches, every access method
// must return, under heavy goroutine concurrency, exactly the results
// (and I/O counts) of a single-threaded execution — Search holds no
// hidden mutable state. The subtests run with t.Parallel() so the index
// builds and cross-index searches interleave, and the whole test is part
// of the -race gate.
func TestConcurrentSearchEqualsSerial(t *testing.T) {
	for _, seed := range []int64{21, 22} {
		seed := seed
		s := testStore(t, 8, seed)
		indexes := []Index{
			NewMotionAware(s, XYW, rtree.Config{}),
			NewMotionAware(s, XYZW, rtree.Config{}),
			NewNaive(s, XYW, rtree.Config{}),
			NewObjectIndex(s, rtree.Config{}),
		}
		queries := randomQueries(seed*100, 40)
		for _, idx := range indexes {
			idx := idx
			t.Run(fmt.Sprintf("seed%d/%s", seed, idx.Name()), func(t *testing.T) {
				t.Parallel()
				// Single-threaded baseline, computed once up front.
				wantIDs := make([][]int64, len(queries))
				wantIO := make([]int64, len(queries))
				for i, q := range queries {
					ids, io := idx.Search(q)
					wantIDs[i] = sortedIDs(ids)
					wantIO[i] = io
				}
				// The motion-aware baseline must itself match brute force.
				if ma, ok := idx.(*MotionAware); ok {
					for i, q := range queries {
						ref := referenceMotionAware(s, ma.layout, q)
						if len(ref) != len(wantIDs[i]) {
							t.Fatalf("query %d: baseline %d ids, brute force %d",
								i, len(wantIDs[i]), len(ref))
						}
						for _, id := range wantIDs[i] {
							if !ref[id] {
								t.Fatalf("query %d: id %d not in brute force set", i, id)
							}
						}
					}
				}

				const goroutines = 8
				var wg sync.WaitGroup
				errs := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						// Each goroutine walks the batch from a different
						// offset so distinct queries overlap in time.
						for k := range queries {
							i := (k + g*len(queries)/goroutines) % len(queries)
							ids, io := idx.Search(queries[i])
							if got := sortedIDs(ids); !equalIDs(got, wantIDs[i]) {
								errs <- fmt.Errorf("goroutine %d query %d: %d ids, serial %d",
									g, i, len(got), len(wantIDs[i]))
								return
							}
							if io != wantIO[i] {
								errs <- fmt.Errorf("goroutine %d query %d: io %d, serial %d",
									g, i, io, wantIO[i])
								return
							}
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
			})
		}
	}
}

// TestMotionAwareInsertDelete checks the new mutation ops single-threaded:
// delete removes exactly the coefficient, insert restores it, and
// searches stay consistent with brute force throughout.
func TestMotionAwareInsertDelete(t *testing.T) {
	s := testStore(t, 4, 31)
	ma := NewMotionAware(s, XYW, rtree.Config{})
	total := ma.Len()
	all := Query{Region: geom.R2(0, 0, 1000, 1000), WMin: 0, WMax: 1}

	victim := s.ID(1, 7)
	if !ma.Delete(victim) {
		t.Fatal("delete of an indexed coefficient failed")
	}
	if ma.Delete(victim) {
		t.Fatal("double delete succeeded")
	}
	if ma.Len() != total-1 {
		t.Fatalf("len = %d after delete", ma.Len())
	}
	ids, _ := ma.Search(all)
	for _, id := range ids {
		if id == victim {
			t.Fatal("deleted coefficient still returned")
		}
	}
	if len(ids) != total-1 {
		t.Fatalf("search returned %d of %d", len(ids), total-1)
	}

	ma.Insert(victim)
	if ma.Len() != total {
		t.Fatalf("len = %d after reinsert", ma.Len())
	}
	ids, _ = ma.Search(all)
	found := false
	for _, id := range ids {
		if id == victim {
			found = true
		}
	}
	if !found || len(ids) != total {
		t.Fatalf("reinsert lost the coefficient (%d ids, found=%v)", len(ids), found)
	}
	if err := ma.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}
