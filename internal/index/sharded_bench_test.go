package index_test

import (
	"math/rand"
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

// benchCity builds the 594 432-coefficient city of bench/workloads.go
// behind a 4-shard index, as the end-to-end benchmark deploys it.
func benchCity() (*index.Sharded, geom.Rect3) {
	store := workload.GenerateCity(workload.CitySpec{BlocksX: 16, BlocksY: 16, LotsPerBlock: 3, Levels: 3, Seed: 1})
	return index.NewSharded(store, index.XYW, index.ShardedConfig{Shards: 4}), store.Bounds()
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
// windows, the difference is what the shard locks, the per-shard
// statistics and the hit set's ordering cost; BenchmarkHitSet times the
// ordering alone. nodes/op and hits/op are averaged over one whole lap
// of the 64 windows, so they do not depend on b.N.
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

// BenchmarkHitSet is SearchInto's ordering step alone: the raw hits of
// BenchmarkShardedSearchInto's windows, in the order the shards'
// R*-trees return them, ordered by the cursor's hit set (hitset) and by
// the comparison sort it replaces above the cutoff (sort). Real window
// hits cluster on the pages of the objects in view; uniform random ids
// would be the hit set's worst case and are not what a search returns.
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
			order func(h *index.HitSet, ids []int64) []int64
		}{
			{"hitset", index.OrderHits},
			{"sort", func(_ *index.HitSet, ids []int64) []int64 {
				slices.Sort(ids)
				return slices.Compact(ids)
			}},
		} {
			b.Run(w.name+"/"+m.name, func(b *testing.B) {
				var h index.HitSet
				var buf []int64
				var hits int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = append(buf[:0], raw[i%len(raw)]...)
					hits += int64(len(m.order(&h, buf)))
				}
				b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
			})
		}
	}
}
