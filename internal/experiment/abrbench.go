package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/abr"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/motion"
	"repro/internal/persist"
	"repro/internal/retrieval"
	"repro/internal/rtree"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ABRBenchSpec configures the utility-vs-bandwidth benchmark. It is a
// deterministic simulation, not a wall-clock soak: each throttle level
// grants every frame the bytes the link could move in one frame
// interval, and the two controllers spend that identical allowance
// through the same server — so the artifact isolates the policy
// difference (what to fetch under a budget), not scheduler noise.
//
// Modes:
//
//   - abr: the viewport-utility plan (rings × resolution bands),
//     truncated by the server along its priority order;
//   - fixed: the pre-ABR two-state controller — a single full-window
//     sub-query at full resolution, or at the degraded floor when full
//     resolution did not fit the previous frame's allowance — truncated
//     in the index's arbitrary merge order.
//
// Delivered coefficients are scored with the screen-space utility model
// (abr.Contribution × coefficient magnitude).
type ABRBenchSpec struct {
	Seed    int64
	Objects int // dataset size (default 40)
	Frames  int // viewpoints per throttle level (default 24)
}

func (s ABRBenchSpec) fill() ABRBenchSpec {
	if s.Objects == 0 {
		s.Objects = 40
	}
	if s.Frames == 0 {
		s.Frames = 24
	}
	return s
}

// The sweep: throttle levels in bytes/second, the allowance window per
// frame, and the fixed controller's degraded wmin floor.
var abrBenchBandwidths = []int64{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}

const (
	abrBenchFrameInterval = 250 * time.Millisecond
	abrBenchFixedFloor    = 0.5
)

// ABRBenchPoint is one throttle level's measurement: mean per-frame
// utility and delivery volume for both controllers under the same byte
// allowance.
type ABRBenchPoint struct {
	BytesPerSecond int64   `json:"bytes_per_second"`
	FrameBudget    int64   `json:"frame_budget_bytes"`
	ABRUtility     float64 `json:"abr_utility"`
	FixedUtility   float64 `json:"fixed_utility"`
	ABRCoeffs      int64   `json:"abr_coeffs"`
	FixedCoeffs    int64   `json:"fixed_coeffs"`
	DegradedFrames int64   `json:"fixed_degraded_frames"`
}

// ABRBenchResult is the JSON document RunABRBench emits
// (BENCH_abr.json).
type ABRBenchResult struct {
	Objects int             `json:"objects"`
	Coeffs  int64           `json:"coefficients"`
	Frames  int             `json:"frames_per_level"`
	Points  []ABRBenchPoint `json:"points"`
	// Gate summaries: the ABR utility curve must be monotone in
	// bandwidth, and must dominate the fixed controller at every level.
	Monotone  bool `json:"abr_utility_monotone"`
	Dominates bool `json:"abr_dominates_fixed"`
}

// frameUtility scores one response: each delivered coefficient weighted
// by its screen-space contribution at the viewer and its normalized
// magnitude.
func frameUtility(store *index.Store, ids []int64, viewer geom.Vec2, side float64) float64 {
	u := 0.0
	for _, id := range ids {
		cf, _ := store.Coeff(id) // in-memory store: never fails
		d := cf.Pos.XY().Sub(viewer).Len()
		u += cf.Value * abr.Contribution(d, side)
	}
	return u
}

// RunABRBench sweeps both controllers across the throttle levels and
// writes the JSON result to jsonPath (skipped if empty) plus a human
// summary to w. A gate violation — a non-monotone ABR curve, or a level
// where the fixed controller beats ABR — is returned as an error after
// the artifact is written, so the JSON of a failing run can still be
// inspected.
func RunABRBench(spec ABRBenchSpec, jsonPath string, w io.Writer) (*ABRBenchResult, error) {
	spec = spec.fill()
	d := workload.Generate(workload.Spec{NumObjects: spec.Objects, Levels: soakLevels, Seed: spec.Seed + 5})
	idx := index.NewMotionAware(d.Store, index.XYW, rtree.Config{})
	srv := retrieval.NewServer(d.Store, idx)
	srv.SetStats(stats.New())

	space := d.Store.Bounds().XY()
	tour := motion.NewTour(motion.Tram, motion.TourSpec{
		Space: space, Steps: spec.Frames, Speed: 0.25,
	}, rand.New(rand.NewSource(spec.Seed)))
	// 30% query frames: large enough that the low throttle levels must
	// truncate (the comparison is vacuous if everything always fits).
	side := d.QuerySide(0.3)

	res := &ABRBenchResult{
		Objects: spec.Objects,
		Coeffs:  d.Store.NumCoeffs(),
		Frames:  spec.Frames,
	}
	fmt.Fprintf(w, "abr bench: %d objects (%d coefficients), %d viewpoints/level, %v frame interval\n",
		spec.Objects, res.Coeffs, spec.Frames, abrBenchFrameInterval)

	for _, bps := range abrBenchBandwidths {
		allowance := int64(float64(bps) * abrBenchFrameInterval.Seconds())
		point := ABRBenchPoint{BytesPerSecond: bps, FrameBudget: allowance}
		degraded := false // fixed controller's state, carried across frames
		for i, pos := range tour.Pos {
			viewer := pos
			q := geom.RectAround(viewer, side)
			cut := retrieval.Identity(tour.SpeedAt(i))

			// ABR: utility-ordered plan, server-truncated at the allowance.
			plan := abr.PlanViewport(q, viewer, cut, 3)
			resp := srv.Execute(plan, nil, nil, allowance)
			point.ABRUtility += frameUtility(d.Store, resp.IDs, viewer, side)
			point.ABRCoeffs += int64(len(resp.IDs))

			// Fixed two-state: full resolution while it fits, the
			// degraded floor after a frame that did not; truncated in
			// arbitrary merge order either way.
			wmin := cut
			if degraded {
				if wmin < abrBenchFixedFloor {
					wmin = abrBenchFixedFloor
				}
				point.DegradedFrames++
			}
			fixed := srv.Execute([]retrieval.SubQuery{{Region: q, WMin: wmin, WMax: 1}}, nil, nil, allowance)
			degraded = fixed.Dropped > 0
			point.FixedUtility += frameUtility(d.Store, fixed.IDs, viewer, side)
			point.FixedCoeffs += int64(len(fixed.IDs))
		}
		point.ABRUtility /= float64(spec.Frames)
		point.FixedUtility /= float64(spec.Frames)
		res.Points = append(res.Points, point)
		fmt.Fprintf(w, "  %7d B/s (%6d B/frame): abr %8.2f utility (%5d coeffs) · fixed %8.2f (%5d coeffs, %d degraded)\n",
			bps, allowance, point.ABRUtility, point.ABRCoeffs, point.FixedUtility, point.FixedCoeffs, point.DegradedFrames)
	}

	res.Monotone, res.Dominates = true, true
	for i, p := range res.Points {
		if i > 0 && p.ABRUtility < res.Points[i-1].ABRUtility {
			res.Monotone = false
		}
		if p.ABRUtility < p.FixedUtility {
			res.Dominates = false
		}
	}
	fmt.Fprintf(w, "  abr utility monotone in bandwidth: %v · abr >= fixed at every level: %v\n",
		res.Monotone, res.Dominates)

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
	if !res.Monotone {
		return res, fmt.Errorf("experiment: abr utility not monotone in bandwidth")
	}
	if !res.Dominates {
		return res, fmt.Errorf("experiment: fixed controller beat abr at some throttle level")
	}
	return res, nil
}
