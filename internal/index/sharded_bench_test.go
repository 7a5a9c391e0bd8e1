package index_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/workload"
)

// BenchmarkShardedSearchInto is the index layer of the serve path as the
// end-to-end benchmark deploys it: the 594 432-coefficient city of
// bench/workloads.go behind a 4-shard index, one SearchInto per
// iteration on a retained cursor and buffer. tram and walk are the
// windows of rtree's BenchmarkWindowSearch; the difference between the
// two benchmarks is what the shard locks, the per-shard statistics and
// the id ordering cost.
func BenchmarkShardedSearchInto(b *testing.B) {
	store := workload.GenerateCity(workload.CitySpec{BlocksX: 16, BlocksY: 16, LotsPerBlock: 3, Levels: 3, Seed: 1})
	idx := index.NewSharded(store, index.XYW, index.ShardedConfig{Shards: 4})
	bounds := store.Bounds()
	space := bounds.XY()
	for _, w := range []struct {
		name       string
		side, wmin float64
	}{
		{"tram", 0.10, 0.8},
		{"walk", 0.30, 0.2},
	} {
		b.Run(w.name, func(b *testing.B) {
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
			var cur index.Cursor
			var buf []int64
			var nodes, hits int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var io int64
				buf, io = idx.SearchInto(qs[i%len(qs)], buf[:0], &cur)
				nodes += io
				hits += int64(len(buf))
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}

// BenchmarkShardedChurn is the write-scaling evidence for per-shard
// locking: b.RunParallel workers mix two 150-unit window searches with
// one delete-plus-reinsert of a random id, the read:write ratio of the
// retired shard sweep, over the 60-object dataset that sweep used. K=1 is
// the single-lock baseline it compared against — one RWMutex over one
// tree, which is what the deleted Concurrent(MotionAware) wrapper was.
// One op is one search or one churn; searches reuse a per-worker cursor.
func BenchmarkShardedChurn(b *testing.B) {
	d := workload.Generate(workload.Spec{NumObjects: 60, Levels: 3, Seed: 10})
	bounds := d.Store.Bounds()
	space := bounds.XY()
	n := d.Store.NumCoeffs()
	for _, k := range []int{1, 2, 4, 8, 16} {
		idx := index.NewSharded(d.Store, index.XYW, index.ShardedConfig{Shards: k})
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var seed atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				var cur index.Cursor
				var buf []int64
				for op := 0; pb.Next(); op++ {
					if op%3 == 2 {
						if id := rng.Int63n(n); idx.Delete(id) {
							idx.Insert(id)
						}
						continue
					}
					x := space.Min.X + rng.Float64()*space.Width()
					y := space.Min.Y + rng.Float64()*space.Height()
					buf, _ = idx.SearchInto(index.Query{
						Region: geom.R2(x, y, x+150, y+150),
						ZMin:   bounds.Min.Z, ZMax: bounds.Max.Z,
						WMin: rng.Float64() * 0.5, WMax: 1,
					}, buf[:0], &cur)
				}
			})
		})
	}
}
