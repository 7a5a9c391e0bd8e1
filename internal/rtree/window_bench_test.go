package rtree_test

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// benchCity is the end-to-end benchmark's city (bench/workloads.go):
// 16×16 blocks of 3² lots at J = 3 — 594 432 coefficients.
var benchCity = workload.CitySpec{BlocksX: 16, BlocksY: 16, LotsPerBlock: 3, Levels: 3, Seed: 1}

// cityTree bulk-loads the benchmark city's coefficients the way
// index.MotionAware does under the XYW layout: support-region MBB in x
// and y, coefficient value in w.
func cityTree(b testing.TB) (*rtree.Tree, geom.Rect2) {
	b.Helper()
	store := workload.GenerateCity(benchCity)
	items := make([]rtree.Item, store.NumCoeffs())
	for id := range items {
		c := index.MustCoeff(store, int64(id))
		items[id] = rtree.Item{Rect: rtree.FromXYW(c.Support.XY(), c.Value, c.Value), Data: int64(id)}
	}
	return rtree.BulkLoad(rtree.DefaultConfig(3), items), store.Bounds().XY()
}

// windows are tram.mem's window (10 % of the city's width at the
// coarse band a fast client asks for) and walk.mem's wholesale frame
// (30 % at a fine cutoff).
var windows = []struct {
	name       string
	side, wmin float64
}{
	{"tram", 0.10, 0.8},
	{"walk", 0.30, 0.2},
}

// windowQueries draws the 64 windows of side·(city width) with value
// band [wmin, 1] that BenchmarkWindowSearch cycles through.
func windowQueries(space geom.Rect2, side, wmin float64) []rtree.Rect {
	rng := rand.New(rand.NewSource(1))
	qs := make([]rtree.Rect, 64)
	for i := range qs {
		at := geom.V2(space.Min.X+rng.Float64()*space.Width(), space.Min.Y+rng.Float64()*space.Height())
		qs[i] = rtree.FromXYW(geom.RectAround(at, side*space.Width()), wmin, 1)
	}
	return qs
}

// BenchmarkWindowSearch is the R*-tree layer of the serve path: one
// SearchInto over the benchmark city on a retained cursor and buffer,
// for each of the windows. nodes/op is the paper's I/O metric and must
// not move when the read path changes; hits/op sizes the output. Both
// are averaged over one whole lap of the 64 queries, so they do not
// depend on b.N and repeat to the last digit.
func BenchmarkWindowSearch(b *testing.B) {
	tree, space := cityTree(b)
	for _, w := range windows {
		b.Run(w.name, func(b *testing.B) {
			qs := windowQueries(space, w.side, w.wmin)
			var cur rtree.Cursor
			var buf []int64
			var nodes, hits int64
			for _, q := range qs {
				var io int64
				buf, io = tree.SearchInto(q, &cur, buf[:0])
				nodes += io
				hits += int64(len(buf))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = tree.SearchInto(qs[i%len(qs)], &cur, buf[:0])
			}
			b.ReportMetric(float64(nodes)/float64(len(qs)), "nodes/op")
			b.ReportMetric(float64(hits)/float64(len(qs)), "hits/op")
		})
	}
}

// BenchmarkNodeFilter is the layer under BenchmarkWindowSearch: one
// node's filter, in ns per node (ns/op), over the nodes the benchmark
// city's tram and walk windows read — the AVX2 kernel ("kernel", where
// it runs) against the survivor walk's filter ("portable").
func BenchmarkNodeFilter(b *testing.B) {
	tree, space := cityTree(b)
	for _, w := range windows {
		b.Run(w.name, func(b *testing.B) {
			rtree.BenchNodeFilter(b, tree, windowQueries(space, w.side, w.wmin))
		})
	}
}
