package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CrowdBenchSpec configures the crowd-scaling benchmark: the flocked
// crowd workload replayed socket-free through a coalesced server and an
// independent one, sweeping crowd size and overlap factor. It is a
// deterministic simulation — sessions are driven serially in lockstep
// steps, and a fresh sharing table per step, large enough to hold the
// step, stands in for within-step concurrency: what a concurrent step
// would share as a wait on an unfilled entry, the serial one shares as
// a hit on the filled entry. So the index-pass counts are exact and
// reproducible rather than scheduling-dependent.
type CrowdBenchSpec struct {
	Seed       int64
	Objects    int       // dataset size (default 24)
	Steps      int       // frames per client (default 10)
	Attractors int       // shared attractor paths (default 4)
	Clients    []int     // crowd-size sweep (default 100, 1000, 10000)
	Overlaps   []float64 // overlap sweep (default 0, 0.5, 0.9)
}

func (s CrowdBenchSpec) fill() CrowdBenchSpec {
	if s.Objects == 0 {
		s.Objects = 24
	}
	if s.Steps == 0 {
		s.Steps = 10
	}
	if s.Attractors == 0 {
		s.Attractors = 4
	}
	if len(s.Clients) == 0 {
		s.Clients = []int{100, 1000, 10000}
	}
	if len(s.Overlaps) == 0 {
		s.Overlaps = []float64{0, 0.5, 0.9}
	}
	return s
}

// maxSubQueries bounds a frame's plan: Algorithm 1 asks at most four
// difference slivers and one detail band. A step's table holds
// maxSubQueries entries per client, so it never evicts.
const maxSubQueries = 5

// CrowdBenchPoint is one (crowd size, overlap) measurement.
type CrowdBenchPoint struct {
	Clients int     `json:"clients"`
	Overlap float64 `json:"overlap"`
	// SubQueries is the planned sub-query volume — identical on both
	// sides, and exactly the independent server's index passes.
	SubQueries int64 `json:"sub_queries"`
	// CoalescedPasses is what the coalesced server actually spent:
	// first touches and led searches. Shared is the passes saved: the
	// table's hits and waits.
	CoalescedPasses int64 `json:"coalesced_passes"`
	Shared          int64 `json:"shared"`
	// PassReduction = SubQueries / CoalescedPasses.
	PassReduction float64 `json:"pass_reduction"`
	IndependentMS float64 `json:"independent_ms"`
	CoalescedMS   float64 `json:"coalesced_ms"`
}

// CrowdBenchResult is the JSON document RunCrowdBench emits
// (BENCH_crowd.json).
type CrowdBenchResult struct {
	Objects int               `json:"objects"`
	Steps   int               `json:"steps"`
	Points  []CrowdBenchPoint `json:"points"`
	// Gate summaries: at every point with >= 1000 clients and overlap
	// >= 0.8 the coalescer must cut index passes by at least 3x, and at
	// overlap 0 it must never spend more passes than independent
	// serving.
	GateSpeedup      bool `json:"gate_speedup_3x"`
	GateNoRegression bool `json:"gate_no_regression"`
}

// RunCrowdBench sweeps the crowd grid and writes the JSON result to
// jsonPath (skipped if empty) plus a human summary to w. Gate
// violations are returned as an error after the artifact is written, so
// the JSON of a failing run can still be inspected.
func RunCrowdBench(spec CrowdBenchSpec, jsonPath string, w io.Writer) (*CrowdBenchResult, error) {
	spec = spec.fill()
	d := workload.Generate(workload.Spec{NumObjects: spec.Objects, Levels: soakLevels, Seed: spec.Seed + 5})
	space := d.Store.Bounds().XY()
	side := d.QuerySide(0.10)

	res := &CrowdBenchResult{Objects: spec.Objects, Steps: spec.Steps}
	fmt.Fprintf(w, "crowd bench: %d objects (%d coefficients), %d steps/client, %d attractors\n",
		spec.Objects, d.Store.NumCoeffs(), spec.Steps, spec.Attractors)

	for _, clients := range spec.Clients {
		for _, overlap := range spec.Overlaps {
			crowd := workload.GenerateCrowd(workload.CrowdSpec{
				Space:      space,
				Clients:    clients,
				Steps:      spec.Steps,
				Attractors: spec.Attractors,
				Overlap:    overlap,
				Seed:       spec.Seed,
			})

			// tables sums the coalesced server's per-step tables.
			var tables hotcache.Stats
			replay := func(srv *retrieval.Server, coalesce bool) time.Duration {
				sessions := make([]*retrieval.Client, clients)
				for i := range sessions {
					sessions[i] = retrieval.NewClient(retrieval.NewSession(srv), nil)
				}
				start := time.Now()
				for s := 0; s < spec.Steps; s++ {
					var hot *hotcache.Cache
					if coalesce {
						hot = hotcache.New(hotcache.Config{MaxEntries: clients * maxSubQueries, MaxBytes: math.MaxInt64})
						srv.SetHotCache(hot)
					}
					for i, tour := range crowd {
						sessions[i].Frame(geom.RectAround(tour.Pos[s], side), tour.SpeedAt(s))
					}
					if hot != nil {
						hs := hot.Stats()
						tables.Hits += hs.Hits
						tables.Routed += hs.Routed
						tables.Led += hs.Led
						tables.Shared += hs.Shared
						tables.Evictions += hs.Evictions
					}
				}
				return time.Since(start)
			}

			// Independent: a plain server, one pass per sub-query.
			stInd := stats.New()
			ind := retrieval.NewServer(d.Store, index.NewSharded(d.Store, index.XYW, index.ShardedConfig{}))
			ind.SetStats(stInd)
			indMS := replay(ind, false)

			// Coalesced: same store, fresh index, a fresh table per step.
			stCo := stats.New()
			srv := retrieval.NewServer(d.Store, index.NewSharded(d.Store, index.XYW, index.ShardedConfig{}))
			srv.SetStats(stCo)
			coMS := replay(srv, true)

			subq, subqCo := stInd.Load(stats.RetrievalSubQueries), stCo.Load(stats.RetrievalSubQueries)
			touches := stCo.Load(stats.RetrievalFirstTouches)
			if subqCo != subq {
				return nil, fmt.Errorf("experiment: sub-query volume diverged: %d coalesced vs %d independent", subqCo, subq)
			}
			if touches+tables.Hits+tables.Routed != subq {
				return nil, fmt.Errorf("experiment: %d first touches + %d hits + %d routed of %d sub-queries — the table was bypassed",
					touches, tables.Hits, tables.Routed, subq)
			}
			if got := tables.Led + tables.Shared; got != tables.Routed {
				return nil, fmt.Errorf("experiment: table counters do not reconcile: %d routed vs %d accounted", tables.Routed, got)
			}
			if tables.Evictions != 0 {
				return nil, fmt.Errorf("experiment: a step's table evicted %d entries", tables.Evictions)
			}
			point := CrowdBenchPoint{
				Clients:         clients,
				Overlap:         overlap,
				SubQueries:      subq,
				CoalescedPasses: touches + tables.Led,
				Shared:          tables.Hits + tables.Shared,
				IndependentMS:   float64(indMS.Microseconds()) / 1000,
				CoalescedMS:     float64(coMS.Microseconds()) / 1000,
			}
			if point.CoalescedPasses > 0 {
				point.PassReduction = float64(point.SubQueries) / float64(point.CoalescedPasses)
			}
			res.Points = append(res.Points, point)
			fmt.Fprintf(w, "  %6d clients, overlap %.1f: %7d sub-queries -> %7d passes (%5.1fx, %6d shared) · %7.1fms vs %7.1fms independent\n",
				clients, overlap, point.SubQueries, point.CoalescedPasses, point.PassReduction, point.Shared,
				point.CoalescedMS, point.IndependentMS)
		}
	}

	res.GateSpeedup, res.GateNoRegression = true, true
	gated := 0
	for _, p := range res.Points {
		if p.Clients >= 1000 && p.Overlap >= 0.8 {
			gated++
			if p.PassReduction < 3 {
				res.GateSpeedup = false
			}
		}
		if p.Overlap == 0 && p.CoalescedPasses > p.SubQueries {
			res.GateNoRegression = false
		}
	}
	if gated == 0 {
		return nil, fmt.Errorf("experiment: sweep contains no point with >= 1000 clients and overlap >= 0.8")
	}
	fmt.Fprintf(w, "  >= 3x fewer passes at 10^3 clients & overlap >= 0.8: %v · no pass regression at overlap 0: %v\n",
		res.GateSpeedup, res.GateNoRegression)

	if jsonPath != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := persist.WriteBytesAtomic(jsonPath, append(buf, '\n')); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  wrote %s\n", jsonPath)
	}
	if !res.GateSpeedup {
		return res, fmt.Errorf("experiment: coalescing cut fewer than 3x index passes at scale")
	}
	if !res.GateNoRegression {
		return res, fmt.Errorf("experiment: coalescing spent extra index passes on a no-overlap crowd")
	}
	return res, nil
}
