package retrieval

import (
	"math/bits"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/motion"
	"repro/internal/workload"
)

// benchCity is the end-to-end benchmark's city: 594 432 coefficients,
// 76 MB of segment records.
func benchCity() *index.Store {
	return workload.GenerateCity(workload.CitySpec{BlocksX: 16, BlocksY: 16, LotsPerBlock: 3, Levels: 3, Seed: 1})
}

// planner is Algorithm 1's planning half: Client, and the tests'
// reference copy of the planner before the float32 band rule.
type planner interface {
	PlanFrame(q geom.Rect2, speed float64) []SubQuery
	Advance(q geom.Rect2, speed float64)
	Reset()
}

// tramFrames plans the given number of tram trips over the space — a
// window a tenth of the city wide at speed 0.8, 2 000 frames each — and
// returns each frame's non-empty slivers after the first frame of a
// trip: the sub-queries Algorithm 1 asks while a tram client moves.
func tramFrames(p planner, space geom.Rect2, trips int) [][]SubQuery {
	return tourFrames(p, motion.Tram, space, trips, 2000, 0.8, 0.10)
}

// walkFrames is tramFrames for walk.mem's pedestrians: a window 30 % of
// the city wide at speed 0.2, 200 frames a trip. A pedestrian who slows
// down adds a band sub-query over the overlap (WMax < 1) to the
// difference slivers (WMax = 1).
func walkFrames(p planner, space geom.Rect2, trips int) [][]SubQuery {
	return tourFrames(p, motion.Pedestrian, space, trips, 200, 0.2, 0.30)
}

// tourFrames plans trips tours of the kind with p, reset before each,
// trip i on tour seed i+1, with a window the given share of the space's
// width wide, and returns the non-empty sub-queries of every frame after
// a trip's first.
func tourFrames(p planner, kind motion.TourKind, space geom.Rect2, trips, steps int, speed, window float64) [][]SubQuery {
	var frames [][]SubQuery
	for trip := 0; trip < trips; trip++ {
		tour := motion.NewTour(kind, motion.TourSpec{Space: space, Steps: steps, Speed: speed}, rand.New(rand.NewSource(int64(trip)+1)))
		p.Reset()
		for i, pos := range tour.Pos {
			q := geom.RectAround(pos, window*space.Width())
			if i > 0 {
				var frame []SubQuery
				for _, sub := range p.PlanFrame(q, tour.SpeedAt(i)) {
					if !sub.Region.Empty() && sub.WMin <= sub.WMax {
						frame = append(frame, sub)
					}
				}
				frames = append(frames, frame)
			}
			p.Advance(q, tour.SpeedAt(i))
		}
	}
	return frames
}

// hitsOf counts the ids a search's words hold.
func hitsOf(words []index.Word) int64 {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w.Bits)
	}
	return int64(n)
}

// bands counts the frames' band sub-queries (WMax < 1).
func bands(frames [][]SubQuery) int {
	n := 0
	for _, frame := range frames {
		for _, sub := range frame {
			if sub.WMax < 1 {
				n++
			}
		}
	}
	return n
}

// BenchmarkFrameSearch is a frame's index work on the end-to-end
// benchmark's traffic: every sub-query of one planned frame searched,
// on a bare server over the 4-shard bench city. tram is tram.mem's
// frames whole; walk/band and walk/diff split walk.mem's frames into
// the band sub-query a pedestrian who slowed down asks (thin in w, wide
// in x and y) and the difference slivers (thin in x or y, the whole
// band from the cutoff up), the two query shapes the R*-tree walk
// filters differently. nodes/frame is the paper's I/O metric,
// hits/frame the ids the index returns and words/frame the 64-id words
// they arrive in, all over one whole lap of the frames, so they repeat
// to the last digit; bands/frame is the band
// sub-queries the planner asks per frame of the whole tour, so a planner
// that asks more of them shows here.
func BenchmarkFrameSearch(b *testing.B) {
	store := benchCity()
	srv := NewServer(store, index.NewSharded(store, index.XYW, index.ShardedConfig{Shards: 4}))
	srv.SetStats(nil)
	space := store.Bounds().XY()
	split := func(frames [][]SubQuery, band bool) [][]SubQuery {
		var out [][]SubQuery
		for _, frame := range frames {
			var part []SubQuery
			for _, sub := range frame {
				if (sub.WMax < 1) == band {
					part = append(part, sub)
				}
			}
			if len(part) > 0 {
				out = append(out, part)
			}
		}
		return out
	}
	tram, walk := tramFrames(NewClient(nil, nil), space, 1), walkFrames(NewClient(nil, nil), space, 16)
	for _, c := range []struct {
		name   string
		frames [][]SubQuery
		tour   [][]SubQuery
	}{
		{"tram", tram, tram},
		{"walk/band", split(walk, true), walk},
		{"walk/diff", split(walk, false), walk},
	} {
		b.Run(c.name, func(b *testing.B) {
			var cur index.Cursor
			var out subResult
			search := func(frame []SubQuery) (io, hits, words int64) {
				for i := range frame {
					srv.searchOne(&frame[i], &out, &cur)
					io += out.io
					hits += hitsOf(out.words)
					words += int64(len(out.words))
				}
				return io, hits, words
			}
			var lap, lapHits, lapWords int64
			for _, frame := range c.frames {
				io, hits, words := search(frame)
				lap += io
				lapHits += hits
				lapWords += words
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				search(c.frames[i%len(c.frames)])
			}
			b.ReportMetric(float64(b.Elapsed())/1e3/float64(b.N), "µs/frame")
			b.ReportMetric(float64(lap)/float64(len(c.frames)), "nodes/frame")
			b.ReportMetric(float64(lapHits)/float64(len(c.frames)), "hits/frame")
			b.ReportMetric(float64(lapWords)/float64(len(c.frames)), "words/frame")
			b.ReportMetric(float64(bands(c.tour))/float64(len(c.tour)), "bands/frame")
		})
	}
}

// BenchmarkSearchOne is one sub-query through the server's search path,
// on the data and the queries the end-to-end benchmark's tram workloads
// use: the 594 432-coefficient city behind a 4-shard index, and the
// slivers Algorithm 1 plans for a tram tour (window a tenth of the city
// wide, speed 0.8). bare has no sharing table; shared has one wired,
// and answers either queries nobody asked
// before (first-touch: what every frame of the tram workloads is, and it
// should cost what bare costs) or queries stored by their second ask
// (admitted-hit: what a crowd at a landmark gets).
func BenchmarkSearchOne(b *testing.B) {
	store := benchCity()
	var slivers []SubQuery
	for _, frame := range tramFrames(NewClient(nil, nil), store.Bounds().XY(), 1) {
		slivers = append(slivers, frame...)
	}
	newServer := func(shared bool) *Server {
		srv := NewServer(store, index.NewSharded(store, index.XYW, index.ShardedConfig{Shards: 4}))
		srv.SetStats(nil)
		if shared {
			srv.SetHotCache(hotcache.New(hotcache.Config{}))
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
			hits += hitsOf(out.words)
		}
		b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	}
	b.Run("bare", func(b *testing.B) { run(b, newServer(false), slivers, true) })
	b.Run("shared/first-touch", func(b *testing.B) {
		srv := newServer(true)
		run(b, srv, slivers, true)
		if hs := srv.HotCache().Stats(); hs.Hits != 0 || hs.Entries != 0 || hs.Routed != 0 {
			b.Fatalf("never-repeating slivers reached the sharing table: %+v", hs)
		}
	})
	b.Run("shared/admitted-hit", func(b *testing.B) {
		srv := newServer(true)
		// Each sliver of a stretch of the tour, asked twice in a row, is
		// stored: 1 024 entries, the cache's default bound.
		for _, sub := range slivers[:1024] {
			touch(srv, sub, sub)
		}
		if n := srv.HotCache().Stats().Entries; n != 1024 {
			b.Fatalf("only %d of 1024 slivers are stored", n)
		}
		before := srv.HotCache().Stats().Hits
		run(b, srv, slivers[:1024], false)
		if got := srv.HotCache().Stats().Hits - before; got != int64(b.N) {
			b.Fatalf("%d of %d asks hit the hot cache", got, b.N)
		}
	})
}

// BenchmarkPagedTram is tram.paged's storage layer: bench-city tram
// frames (8 trips) replayed through a PagedStore whose page cache holds
// 1/16 of the payload, as the end-to-end benchmark deploys it. A frame
// searches each of its slivers and reads every hit through one pin set,
// released at the frame's end, as the filter pass and the payload encode
// do. One untimed lap warms the cache first; faults/frame is then the
// steady-state page-fault rate and ns/op the cost of a frame.
func BenchmarkPagedTram(b *testing.B) {
	store := benchCity()
	path := filepath.Join(b.TempDir(), "city.seg")
	if err := index.BuildSegment(path, store, 3, 0); err != nil {
		b.Fatal(err)
	}
	ps, err := index.OpenPaged(path, index.PagedConfig{CacheBytes: store.NumCoeffs() * index.CoeffRecordSize / 16})
	if err != nil {
		b.Fatal(err)
	}
	defer ps.Close()
	srv := NewServer(ps, index.NewSharded(ps, index.XYW, index.ShardedConfig{Shards: 4}))
	srv.SetStats(nil)
	frames := tramFrames(NewClient(nil, nil), store.Bounds().XY(), 8)
	pins := ps.NewPins()
	var cur index.Cursor
	var out subResult
	var ids []int64
	replay := func(frame []SubQuery) {
		for i := range frame {
			srv.searchOne(&frame[i], &out, &cur)
			ids = index.AppendIDs(ids[:0], out.words)
			for _, id := range ids {
				if _, err := pins.Coeff(id); err != nil {
					b.Fatal(err)
				}
			}
		}
		pins.Release()
	}
	for _, frame := range frames {
		replay(frame)
	}
	before := ps.PagerStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay(frames[i%len(frames)])
	}
	b.StopTimer()
	st := ps.PagerStats()
	b.ReportMetric(float64(st.Faults-before.Faults)/float64(b.N), "faults/frame")
	b.ReportMetric(float64(st.Evictions-before.Evictions)/float64(b.N), "evictions/frame")
}
