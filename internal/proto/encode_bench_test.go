package proto

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/motion"
	"repro/internal/retrieval"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// benchCity is the end-to-end benchmark's city (594 432 coefficients),
// its 4-shard index, and response id sets of the two sizes the serve
// path sees most: 55 records (a tram.mem frame) and 600 (a walk.mem
// frame), each spread evenly over a thin strip through the city centre,
// so a frame touches many objects a few coefficients each, with hardly
// two ids in a row. walk is a real walk.mem response instead: the
// median-sized one of a pedestrian trip's frames after the first, whose
// fresh ids come in runs of consecutive ids.
var benchCity struct {
	once  sync.Once
	store *index.Store
	idx   index.IntoSearcher
	ids   map[int][]int64
	walk  []int64
}

func loadBenchCity() {
	c := &benchCity
	c.store = workload.GenerateCity(workload.CitySpec{BlocksX: 16, BlocksY: 16, LotsPerBlock: 3, Levels: 3, Seed: 1})
	c.idx = index.NewSharded(c.store, index.XYW, index.ShardedConfig{Shards: 4})
	space := c.store.Bounds().XY()
	mid, w := space.Center(), space.Max.X-space.Min.X
	strip := geom.R2(mid.X-0.15*w, mid.Y, mid.X+0.15*w, mid.Y+0.01*w)
	all, _ := c.idx.Search(index.Query{Region: strip, WMin: 0, WMax: 1})
	c.ids = make(map[int][]int64)
	for _, n := range []int{55, 600} {
		ids := make([]int64, n)
		for k := range ids {
			ids[k] = all[k*len(all)/n]
		}
		c.ids[n] = ids
	}
	// One pedestrian trip as walk.mem plans it: a window 30 % of the city
	// wide at speed 0.2, 200 frames.
	tour := motion.NewTour(motion.Pedestrian, motion.TourSpec{Space: space, Steps: 200, Speed: 0.2}, rand.New(rand.NewSource(1)))
	client := retrieval.NewClient(retrieval.NewSession(retrieval.NewServer(c.store, c.idx)), nil)
	var frames [][]int64
	for i, pos := range tour.Pos {
		resp, _ := client.Frame(geom.RectAround(pos, 0.30*w), tour.SpeedAt(i))
		if i > 0 && len(resp.IDs) > 0 {
			frames = append(frames, resp.IDs)
		}
	}
	slices.SortFunc(frames, func(a, b []int64) int { return len(a) - len(b) })
	c.walk = frames[len(frames)/2]
}

// benchConn returns a serving connection over src whose session reads
// through src's pin sets, with no hot cache: reply takes the encode
// path every time.
func benchConn(src index.CoefficientSource) *serverConn {
	srv := retrieval.NewServer(src, benchCity.idx)
	return &serverConn{
		s:     NewMultiServer(engine.NewRegistry(), nil),
		scene: &engine.Scene{Source: src, Server: srv},
		sess:  &engine.Lineage{Session: retrieval.NewSession(srv)},
	}
}

// BenchmarkEncodeResponse is the server's record assembly for one
// response — fetch the records through the session's pins and append
// them to the frame, a run of consecutive ids at a time over the
// resident store — at a tram-sized and a walk-sized spread delivery and
// at a real walk.mem response (walk), over the resident benchmark city
// and over its paged segment with the benchmark's 1/16 page cache (warm
// after the first frame). runs/op counts the runs of consecutive ids in
// the response.
func BenchmarkEncodeResponse(b *testing.B) {
	benchCity.once.Do(loadBenchCity)
	store := benchCity.store
	path := filepath.Join(b.TempDir(), "city.seg")
	if err := index.BuildSegment(path, store, 3, 0); err != nil {
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
		for _, set := range []struct {
			name string
			ids  []int64
		}{{"55", benchCity.ids[55]}, {"600", benchCity.ids[600]}, {"walk", benchCity.walk}} {
			b.Run(src.name+"/"+set.name, func(b *testing.B) {
				c := benchConn(src.src)
				ids := set.ids
				runs := 0
				for k := range ids {
					if k == 0 || ids[k] != ids[k-1]+1 {
						runs++
					}
				}
				resp := retrieval.Response{IDs: make([]int64, len(ids))}
				b.SetBytes(int64(len(ids) * wavelet.WireBytes))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					resp.IDs = append(resp.IDs[:0], ids...)
					c.reply(&resp)
				}
				b.ReportMetric(float64(runs), "runs/op")
				b.ReportMetric(float64(len(ids)), "ids/op")
			})
		}
	}
}

// BenchmarkClientApply is the client's side of a walk-sized response —
// 600 records over many objects, read off the stream, checked and
// applied into reconstructors: Client.exchange, with the request written
// to nowhere and the response read from memory. steady applies it into
// reconstructors that already hold those objects, as a moving client's
// steady state does; fresh applies it on a new client, handshake schema
// included, as each of join.hot's arriving connections does.
func BenchmarkClientApply(b *testing.B) {
	benchCity.once.Do(loadBenchCity)
	coeffs := make([]Coeff, 0, 600)
	for _, id := range benchCity.ids[600] {
		co := index.MustCoeff(benchCity.store, id)
		coeffs = append(coeffs, Coeff{Object: co.Object, Vertex: co.Vertex, Delta: co.Delta,
			Pos: [3]float32{float32(co.Pos.X), float32(co.Pos.Y), float32(co.Pos.Z)}, Value: float32(co.Value)})
	}
	frame := responseFrame(b, Response{IO: 40, Seq: 1, Coeffs: coeffs})
	hello := Hello{Objects: int32(benchCity.store.NumObjects()), Levels: 3, BaseVerts: 6}
	br := bytes.NewReader(frame)
	exchange := func(c *Client) {
		br.Reset(frame)
		c.r.Reset(br)
		c.appliedSeq = 0
		if n, _, err := c.exchange(Request{}); err != nil || n != 600 {
			b.Fatalf("exchange: %d records, %v", n, err)
		}
	}
	b.Run("steady", func(b *testing.B) {
		c := replayClient(b, hello, br)
		exchange(c)
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exchange(c)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			exchange(replayClient(b, hello, br))
		}
	})
}
