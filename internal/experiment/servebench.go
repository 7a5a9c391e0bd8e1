package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/proto"
	"repro/internal/retrieval"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// ServeBenchSpec configures the steady-state serve-path benchmark: N
// concurrent clients each replay a recurring set of window queries
// against one shared server, and every frame runs the full
// Execute+encode path (index search, duplicate-free id set, wire
// serialization). Two modes are measured over identical workloads:
//
//   - baseline: the fresh-allocation path the server used before the
//     zero-allocation work — Execute plus a per-frame Coeff slice and
//     WriteResponse, no cursors, no pooling, no hot cache.
//   - pooled: the steady-state path — ExecuteScratch with a reusable
//     cursor and id slab, a per-client payload buffer, and the
//     hot-region cache serving pre-serialized payloads.
//
// The headline number (and the acceptance gate) is the allocs/op
// reduction at 8 clients.
type ServeBenchSpec struct {
	Seed    int64
	Objects int   // dataset size (default 60)
	Levels  int   // subdivision depth (default 3)
	Shards  int   // index shards (default 4)
	Clients []int // concurrent-client sweep (default 1, 8, 64)
	Frames  int   // frames per client per run (default 200)
	Runs    int   // repetitions per configuration; best wall-clock wins (default 5)
}

func (s ServeBenchSpec) fill() ServeBenchSpec {
	if s.Objects == 0 {
		s.Objects = 60
	}
	if s.Levels == 0 {
		s.Levels = 3
	}
	if s.Shards == 0 {
		s.Shards = 4
	}
	if len(s.Clients) == 0 {
		s.Clients = []int{1, 8, 64}
	}
	if s.Frames == 0 {
		s.Frames = 200
	}
	if s.Runs == 0 {
		s.Runs = 5
	}
	return s
}

// ServeBenchPoint is one (mode, clients) configuration's measurement.
// Allocation counts are process-global deltas over the measured run
// divided by total frames, so they include everything the serve path
// touches.
type ServeBenchPoint struct {
	Mode        string  `json:"mode"` // "baseline" or "pooled"
	Clients     int     `json:"clients"`
	Frames      int64   `json:"frames"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	CacheHits   int64   `json:"cache_hits,omitempty"`
}

// ServeBenchResult is the JSON document RunServeBench emits
// (BENCH_serve.json).
type ServeBenchResult struct {
	Objects         int               `json:"objects"`
	Coeffs          int64             `json:"coefficients"`
	FramesPerClient int               `json:"frames_per_client"`
	Runs            int               `json:"runs"`
	Points          []ServeBenchPoint `json:"points"`
	// AllocReduction8 is 1 - pooled/baseline allocs-per-op at 8 clients —
	// the acceptance headline.
	AllocReduction8 float64 `json:"alloc_reduction_8_clients"`
}

// serveWorkload is the shared query schedule: a small pool of recurring
// windows (hot regions several clients revisit) that each client cycles
// through from its own offset. Identical for both modes, so the index
// work per frame is the same and only the serve path differs.
func serveWorkload(seed int64, bounds geom.Rect3) []retrieval.SubQuery {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]retrieval.SubQuery, 8)
	for i := range pool {
		x := bounds.Min.X + rng.Float64()*(bounds.Max.X-bounds.Min.X)*0.6
		y := bounds.Min.Y + rng.Float64()*(bounds.Max.Y-bounds.Min.Y)*0.6
		pool[i] = retrieval.SubQuery{
			Region: geom.Rect2{Min: geom.V2(x, y), Max: geom.V2(x+300, y+300)},
			WMin:   0.25 * float64(i%3),
			WMax:   1,
		}
	}
	return pool
}

// runServeMode measures one (mode, clients) configuration once:
// total wall time and the process-global allocation delta.
func runServeMode(srv *retrieval.Server, pool []retrieval.SubQuery, clients, frames int, pooled bool) (elapsed time.Duration, mallocs, bytes uint64) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			subs := make([]retrieval.SubQuery, 1)
			w := proto.NewWriter(io.Discard)
			if pooled {
				var sc retrieval.Scratch
				var coeffs []proto.Coeff
				var payloadBuf []byte
				hot := srv.HotCache()
				<-start
				for f := 0; f < frames; f++ {
					subs[0] = pool[(offset+f)%len(pool)]
					resp := srv.ExecuteScratch(subs, nil, &sc)
					var payload []byte
					if hot != nil && resp.Hot.Valid {
						if p, ok := hot.Payload(resp.Hot.Query, resp.Hot.Epoch); ok && len(p) == len(resp.IDs)*wavelet.WireBytes {
							payload = p
						}
					}
					if payload == nil {
						coeffs = coeffs[:0]
						for _, id := range resp.IDs {
							cf, _ := srv.Store().Coeff(id) // in-memory store: never fails
							coeffs = append(coeffs, proto.Coeff{
								Object: cf.Object, Vertex: cf.Vertex, Delta: cf.Delta,
								Pos:   [3]float32{float32(cf.Pos.X), float32(cf.Pos.Y), float32(cf.Pos.Z)},
								Value: float32(cf.Value),
							})
						}
						payloadBuf = proto.EncodeResponsePayload(payloadBuf[:0], coeffs)
						payload = payloadBuf
						if hot != nil && resp.Hot.Valid {
							hot.SetPayload(resp.Hot.Query, resp.Hot.Epoch, payload)
						}
					}
					if err := w.WriteResponsePayload(len(resp.IDs), resp.IO, int64(f), payload); err != nil {
						panic(err)
					}
				}
			} else {
				<-start
				for f := 0; f < frames; f++ {
					subs[0] = pool[(offset+f)%len(pool)]
					resp := srv.Execute(subs, nil)
					out := proto.Response{IO: resp.IO, Seq: int64(f), Coeffs: make([]proto.Coeff, 0, len(resp.IDs))}
					for _, id := range resp.IDs {
						cf, _ := srv.Store().Coeff(id) // in-memory store: never fails
						out.Coeffs = append(out.Coeffs, proto.Coeff{
							Object: cf.Object, Vertex: cf.Vertex, Delta: cf.Delta,
							Pos:   [3]float32{float32(cf.Pos.X), float32(cf.Pos.Y), float32(cf.Pos.Z)},
							Value: float32(cf.Value),
						})
					}
					if err := w.WriteResponse(out); err != nil {
						panic(err)
					}
				}
			}
		}(c)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed = time.Since(t0)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// RunServeBench measures the steady-state serve path in both modes
// across the client sweep and writes the JSON result to jsonPath
// (skipped if empty) plus a human summary to w. If jsonPath already
// holds a previous result, the delta against it is printed before the
// file is replaced — the informational regression check `make ci` runs.
func RunServeBench(spec ServeBenchSpec, jsonPath string, w io.Writer) (*ServeBenchResult, error) {
	spec = spec.fill()
	d := workload.Generate(workload.Spec{NumObjects: spec.Objects, Levels: spec.Levels, Seed: spec.Seed + 5})
	pool := serveWorkload(spec.Seed+11, d.Store.Bounds())

	res := &ServeBenchResult{
		Objects:         spec.Objects,
		Coeffs:          d.Store.NumCoeffs(),
		FramesPerClient: spec.Frames,
		Runs:            spec.Runs,
	}
	fmt.Fprintf(w, "serve bench: %d objects (%d coefficients), %d frames/client, best of %d runs\n",
		spec.Objects, res.Coeffs, spec.Frames, spec.Runs)

	var base8, pooled8 float64
	for _, mode := range []string{"baseline", "pooled"} {
		pooled := mode == "pooled"
		for _, clients := range spec.Clients {
			// A fresh server per configuration so one run's cache warmth
			// never leaks into another's measurement.
			srv := buildServeServer(d, spec.Shards, pooled)
			totalOps := int64(clients) * int64(spec.Frames)
			best := ServeBenchPoint{Mode: mode, Clients: clients, Frames: totalOps}
			for run := 0; run < spec.Runs; run++ {
				elapsed, mallocs, bytes := runServeMode(srv, pool, clients, spec.Frames, pooled)
				nsPerOp := float64(elapsed.Nanoseconds()) / float64(totalOps)
				if run == 0 || nsPerOp < best.NsPerOp {
					best.NsPerOp = nsPerOp
					best.AllocsPerOp = float64(mallocs) / float64(totalOps)
					best.BytesPerOp = float64(bytes) / float64(totalOps)
				}
			}
			if pooled {
				if hc := srv.HotCache(); hc != nil {
					best.CacheHits = hc.Stats().Hits
				}
			}
			res.Points = append(res.Points, best)
			fmt.Fprintf(w, "  %-8s %3d clients: %10.0f ns/op · %8.2f allocs/op · %10.0f B/op\n",
				mode, clients, best.NsPerOp, best.AllocsPerOp, best.BytesPerOp)
			if clients == 8 {
				if pooled {
					pooled8 = best.AllocsPerOp
				} else {
					base8 = best.AllocsPerOp
				}
			}
		}
	}
	if base8 > 0 {
		res.AllocReduction8 = 1 - pooled8/base8
		fmt.Fprintf(w, "  allocs/op at 8 clients: %.2f -> %.2f (%.1f%% reduction)\n",
			base8, pooled8, res.AllocReduction8*100)
	}

	if jsonPath != "" {
		printServeDelta(jsonPath, res, w)
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := persist.WriteBytesAtomic(jsonPath, append(buf, '\n')); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  wrote %s\n", jsonPath)
	}
	return res, nil
}

// buildServeServer constructs one mode's server over the shared dataset:
// sub-query execution stays serial (concurrency comes from the client
// goroutines), and only the pooled mode gets a hot cache.
func buildServeServer(d *workload.Dataset, shards int, pooled bool) *retrieval.Server {
	idx := index.NewSharded(d.Store, index.XYW, index.ShardedConfig{Shards: shards})
	srv := retrieval.NewServer(d.Store, idx)
	srv.SetStats(nil)
	if pooled {
		srv.SetHotCache(hotcache.New(hotcache.Config{}))
	}
	return srv
}

// printServeDelta compares a fresh result against the previous JSON
// artifact, point by point. Informational only: noisy machines move
// ns/op, so nothing here fails a build.
func printServeDelta(jsonPath string, cur *ServeBenchResult, w io.Writer) {
	buf, err := os.ReadFile(jsonPath)
	if err != nil {
		return // first run; nothing to compare
	}
	var prev ServeBenchResult
	if json.Unmarshal(buf, &prev) != nil {
		return
	}
	prevAt := make(map[string]ServeBenchPoint, len(prev.Points))
	for _, p := range prev.Points {
		prevAt[fmt.Sprintf("%s/%d", p.Mode, p.Clients)] = p
	}
	fmt.Fprintf(w, "  delta vs previous %s:\n", jsonPath)
	for _, p := range cur.Points {
		if old, ok := prevAt[fmt.Sprintf("%s/%d", p.Mode, p.Clients)]; ok && old.NsPerOp > 0 {
			fmt.Fprintf(w, "    %-8s %3d clients: ns/op %+.1f%% · allocs/op %+.1f%%\n",
				p.Mode, p.Clients,
				(p.NsPerOp/old.NsPerOp-1)*100,
				allocDeltaPct(p.AllocsPerOp, old.AllocsPerOp))
		}
	}
	fmt.Fprintf(w, "    alloc reduction at 8 clients: %.1f%% (was %.1f%%)\n",
		cur.AllocReduction8*100, prev.AllocReduction8*100)
}

// allocDeltaPct guards the zero-allocation steady state (0 → 0 is 0%,
// not NaN).
func allocDeltaPct(cur, old float64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return 100
	}
	return (cur/old - 1) * 100
}
