package index_test

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// benchWindow is one of the two window shapes of rtree's
// BenchmarkWindowSearch: a tram window (a tenth of the city wide, coarse
// cutoff) and a walk window (three tenths wide, fine cutoff).
type benchWindow struct {
	name       string
	side, wmin float64
}

var benchWindows = []benchWindow{{"tram", 0.10, 0.8}, {"walk", 0.30, 0.2}}

// benchCitySpec is the 594 432-coefficient city of bench/workloads.go.
var benchCitySpec = workload.CitySpec{BlocksX: 16, BlocksY: 16, LotsPerBlock: 3, Levels: 3, Seed: 1}

// benchCity builds the benchmark city behind a 4-shard index, as the
// end-to-end benchmark deploys it.
func benchCity() (*index.Sharded, geom.Rect3) {
	store := workload.GenerateCity(benchCitySpec)
	return index.NewSharded(store, index.XYW, index.ShardedConfig{Shards: 4}), store.Bounds()
}

// BenchmarkNewSharded is the layer under setup_s: the 4-shard build of
// the benchmark city the end-to-end benchmark's server makes, from the
// resident store and from a paged one (a segment of the same city with
// the page cache at 1/16 of the payload, as tram.paged serves it).
// ms/op is one build; alloc-MB/op what one build allocates; live-MB
// what the built index keeps on the heap after a collection.
func BenchmarkNewSharded(b *testing.B) {
	store := workload.GenerateCity(benchCitySpec)
	path := filepath.Join(b.TempDir(), "city.seg")
	if err := index.BuildSegment(path, store, benchCitySpec.Levels, 0); err != nil {
		b.Fatal(err)
	}
	ps, err := index.OpenPaged(path, index.PagedConfig{CacheBytes: store.NumCoeffs() * index.CoeffRecordSize / 16})
	if err != nil {
		b.Fatal(err)
	}
	defer ps.Close()
	for _, src := range []struct {
		name string
		src  index.CoefficientSource
	}{{"resident", store}, {"paged", ps}} {
		b.Run(src.name, func(b *testing.B) {
			build := func() *index.Sharded { return index.NewSharded(src.src, index.XYW, index.ShardedConfig{Shards: 4}) }
			build() // the paged store's cache fills on the first build
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			var idx *index.Sharded
			for i := 0; i < b.N; i++ {
				idx = build()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			alloc := after.TotalAlloc - before.TotalAlloc
			runtime.GC()
			runtime.ReadMemStats(&after)
			if idx.Len() != int(store.NumCoeffs()) {
				b.Fatalf("index holds %d coefficients, want %d", idx.Len(), store.NumCoeffs())
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
			b.ReportMetric(float64(alloc)/float64(b.N)/(1<<20), "alloc-MB/op")
			b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20), "live-MB")
		})
	}
}

// queries draws 64 windows of the shape at uniform positions in the city.
func (w benchWindow) queries(bounds geom.Rect3) []index.Query {
	space := bounds.XY()
	rng := rand.New(rand.NewSource(1))
	qs := make([]index.Query, 64)
	for i := range qs {
		at := geom.V2(space.Min.X+rng.Float64()*space.Width(), space.Min.Y+rng.Float64()*space.Height())
		qs[i] = index.Query{
			Region: geom.RectAround(at, w.side*space.Width()),
			ZMin:   bounds.Min.Z, ZMax: bounds.Max.Z,
			WMin: w.wmin, WMax: 1,
		}
	}
	return qs
}

// BenchmarkShardedSearchInto is the index layer of the serve path: one
// SearchInto per iteration on a retained cursor and buffer over the
// benchmark city. Against rtree's BenchmarkWindowSearch over the same
// windows, the difference is what the shard bounds checks, the
// per-shard statistics and the hit set's ordering cost; BenchmarkHitSet
// times the ordering alone. nodes/op and hits/op are averaged over one
// whole lap of the 64 windows, so they do not depend on b.N.
func BenchmarkShardedSearchInto(b *testing.B) {
	idx, bounds := benchCity()
	for _, w := range benchWindows {
		b.Run(w.name, func(b *testing.B) {
			qs := w.queries(bounds)
			var cur index.Cursor
			var buf []int64
			var nodes, hits int64
			for _, q := range qs {
				var io int64
				buf, io = idx.SearchInto(q, buf[:0], &cur)
				nodes += io
				hits += int64(len(buf))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = idx.SearchInto(qs[i%len(qs)], buf[:0], &cur)
			}
			b.ReportMetric(float64(nodes)/float64(len(qs)), "nodes/op")
			b.ReportMetric(float64(hits)/float64(len(qs)), "hits/op")
		})
	}
}

// BenchmarkHitSet is SearchWords' ordering step alone: the raw hits of
// BenchmarkShardedSearchInto's windows, in the order the shards'
// R*-trees return them, folded into ascending words by the cursor's hit
// set (hitset) and by the comparison sort it replaces above the cutoff
// (sort). Real window hits cluster on the pages of the objects in view;
// uniform random ids would be the hit set's worst case and are not what
// a search returns.
func BenchmarkHitSet(b *testing.B) {
	idx, bounds := benchCity()
	var rt rtree.Cursor
	for _, w := range benchWindows {
		var raw [][]int64
		for _, q := range w.queries(bounds) {
			hits, _ := index.ShardedRawHits(idx, q, nil, &rt)
			raw = append(raw, hits)
		}
		for _, m := range []struct {
			name  string
			words func(h *index.HitSet, ids []int64, out []index.Word) []index.Word
		}{
			{"hitset", index.HitWords},
			{"sort", func(_ *index.HitSet, ids []int64, out []index.Word) []index.Word {
				slices.Sort(ids)
				return index.AppendWords(out, slices.Compact(ids))
			}},
		} {
			b.Run(w.name+"/"+m.name, func(b *testing.B) {
				var h index.HitSet
				var buf []int64
				var out []index.Word
				var words int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = append(buf[:0], raw[i%len(raw)]...)
					out = m.words(&h, buf, out[:0])
					words += int64(len(out))
				}
				b.ReportMetric(float64(words)/float64(b.N), "words/op")
			})
		}
	}
}
