package retrieval

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/motion"
	"repro/internal/workload"
)

// BenchmarkSearchOne is one sub-query through the server's search path,
// on the data and the queries the end-to-end benchmark's tram workloads
// use: the 594 432-coefficient city behind a 4-shard index, and the
// slivers Algorithm 1 plans for a tram tour (window a tenth of the city
// wide, speed 0.8). bare has neither sharing layer; shared has the hot
// cache and the coalescer wired, and answers either queries nobody asked
// before (first-touch: what every frame of the tram workloads is, and it
// should cost what bare costs) or queries stored by their second ask
// (admitted-hit: what a crowd at a landmark gets).
func BenchmarkSearchOne(b *testing.B) {
	store := workload.GenerateCity(workload.CitySpec{BlocksX: 16, BlocksY: 16, LotsPerBlock: 3, Levels: 3, Seed: 1})
	space := store.Bounds().XY()
	tour := motion.NewTour(motion.Tram, motion.TourSpec{Space: space, Steps: 2000, Speed: 0.8}, rand.New(rand.NewSource(1)))
	planner := NewClient(nil, nil)
	var slivers []SubQuery
	for i, pos := range tour.Pos {
		q := geom.RectAround(pos, 0.10*space.Width())
		if i > 0 {
			for _, sub := range planner.PlanFrame(q, tour.SpeedAt(i)) {
				if !sub.Region.Empty() && sub.WMin <= sub.WMax {
					slivers = append(slivers, sub)
				}
			}
		}
		planner.Advance(q, tour.SpeedAt(i))
	}
	newServer := func(shared bool) *Server {
		srv := NewServer(store, index.NewSharded(store, index.XYW, index.ShardedConfig{Shards: 4}))
		srv.SetStats(nil)
		if shared {
			srv.SetHotCache(hotcache.New(hotcache.Config{}))
			srv.SetCoalescer(NewCoalescer(CoalescerConfig{}))
		}
		return srv
	}
	// run asks the slivers round-robin. Each lap nudges the regions by a
	// further 2⁻²⁰ of a world unit, so with fresh set no query ever
	// repeats exactly while every lap does the same index work.
	run := func(b *testing.B, srv *Server, pool []SubQuery, fresh bool) {
		var cur index.Cursor
		var out subResult
		var hits int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sub := pool[i%len(pool)]
			if fresh {
				d := float64(i/len(pool)) / (1 << 20)
				sub.Region.Min.X += d
				sub.Region.Max.X += d
			}
			srv.searchOne(&sub, &out, &cur)
			hits += int64(len(out.ids))
		}
		b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	}
	b.Run("bare", func(b *testing.B) { run(b, newServer(false), slivers, true) })
	b.Run("shared/first-touch", func(b *testing.B) {
		srv := newServer(true)
		run(b, srv, slivers, true)
		if hs, cs := srv.HotCache().Stats(), srv.Coalescer().Stats(); hs.Hits != 0 || hs.Entries != 0 || cs.Routed != 0 {
			b.Fatalf("never-repeating slivers reached the sharing layers: %+v / %+v", hs, cs)
		}
	})
	b.Run("shared/admitted-hit", func(b *testing.B) {
		srv := newServer(true)
		// Consecutive slivers share a quantised bucket and a bucket holds
		// one entry, so ask a stretch of the tour twice and keep what is
		// still stored afterwards.
		touch(srv, slivers[:1024]...)
		touch(srv, slivers[:1024]...)
		var pool []SubQuery
		for i := range slivers[:1024] {
			if _, _, ok := srv.hot.Get(srv.queryOf(&slivers[i]), srv.epoch.Epoch(), nil); ok {
				pool = append(pool, slivers[i])
			}
		}
		if len(pool) < 32 {
			b.Fatalf("only %d of 1024 slivers are stored", len(pool))
		}
		before := srv.HotCache().Stats().Hits
		run(b, srv, pool, false)
		if got := srv.HotCache().Stats().Hits - before; got != int64(b.N) {
			b.Fatalf("%d of %d asks hit the hot cache", got, b.N)
		}
	})
}
