package index_test

import (
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/workload"
)

// BenchmarkBuildSegment is the paged share of tram.paged's setup_s on the
// benchmark city: writing its segment from the resident store (build),
// opening it (open: the footer, the CRC directory and the id→slot
// table), and the 4-shard index's scan of the paged store (index), with
// the page cache at the benchmark's 1/16 of the payload.
func BenchmarkBuildSegment(b *testing.B) {
	store := workload.GenerateCity(workload.CitySpec{BlocksX: 16, BlocksY: 16, LotsPerBlock: 3, Levels: 3, Seed: 1})
	path := filepath.Join(b.TempDir(), "city.seg")
	cfg := index.PagedConfig{CacheBytes: store.NumCoeffs() * index.CoeffRecordSize / 16}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := index.BuildSegment(path, store, 3, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ps, err := index.OpenPaged(path, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ps.Close()
		}
	})
	b.Run("index", func(b *testing.B) {
		ps, err := index.OpenPaged(path, cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer ps.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			index.NewSharded(ps, index.XYW, index.ShardedConfig{Shards: 4})
		}
	})
}
