// Package motion provides the client-motion substrate of the paper:
// synthetic tram and pedestrian tours standing in for the authors'
// collected head-movement traces (§VII-A), and the state-estimation
// motion predictor of §V-B — a recursive-least-squares estimate of the
// state transition matrix, multi-step prediction with error-covariance
// propagation, and the grid-cell visit probabilities the buffer manager
// allocates by.
package motion

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// TourKind distinguishes the two movement settings of the experiments.
type TourKind int

const (
	// Tram tours follow a rail grid: long straight segments, turns only at
	// intersections, near-constant speed. They are the more predictable
	// setting.
	Tram TourKind = iota
	// Pedestrian tours are correlated random walks with heading drift and
	// occasional stops — the less predictable setting.
	Pedestrian
)

func (k TourKind) String() string {
	if k == Tram {
		return "tram"
	}
	return "walk"
}

// Tour is one client trajectory: a position per timestamp plus the
// normalized nominal speed it was generated at.
type Tour struct {
	Kind  TourKind
	Speed float64 // normalized nominal speed in (0, 1]
	Pos   []geom.Vec2
	VMax  float64 // ground distance per step corresponding to speed 1.0
}

// Len returns the number of timestamps.
func (t *Tour) Len() int { return len(t.Pos) }

// SpeedAt returns the normalized instantaneous speed at step i (distance
// covered entering step i divided by VMax), clamped to [0, 1]. Step 0
// reports the nominal speed. Derived from positions, a constant pace
// wobbles by ulps (0.2 reads 0.19999999999999937, then
// 0.20000000000000023). That is left alone: a real client estimates its
// speed from noisy positions too, so retrieval.Client asks a slowdown
// band only for a drop it can see in float32.
func (t *Tour) SpeedAt(i int) float64 {
	if i <= 0 || i >= len(t.Pos) {
		return t.Speed
	}
	s := t.Pos[i].Dist(t.Pos[i-1]) / t.VMax
	if s > 1 {
		s = 1
	}
	return s
}

// Distance returns the total ground distance of the tour.
func (t *Tour) Distance() float64 {
	var d float64
	for i := 1; i < len(t.Pos); i++ {
		d += t.Pos[i].Dist(t.Pos[i-1])
	}
	return d
}

func (t *Tour) String() string {
	return fmt.Sprintf("%v tour: %d steps at speed %.3f", t.Kind, t.Len(), t.Speed)
}

// TourSpec parameterizes tour generation.
type TourSpec struct {
	Space    geom.Rect2 // the data space the tour stays inside
	Steps    int        // number of timestamps
	Speed    float64    // normalized speed in (0, 1]
	VMax     float64    // ground units per step at speed 1.0; 0 → 2% of space width
	RailGap  float64    // tram rail spacing; 0 → 10% of space width
	StopProb float64    // pedestrian per-step probability of pausing; default 0.05
}

func (s *TourSpec) fill() {
	if s.VMax == 0 {
		s.VMax = 0.02 * s.Space.Width()
	}
	if s.RailGap == 0 {
		s.RailGap = 0.1 * s.Space.Width()
	}
	if s.StopProb == 0 {
		s.StopProb = 0.05
	}
	if s.Speed <= 0 {
		s.Speed = 0.5
	}
	if s.Speed > 1 {
		s.Speed = 1
	}
}

// NewTour generates a reproducible tour of the given kind.
func NewTour(kind TourKind, spec TourSpec, rng *rand.Rand) *Tour {
	spec.fill()
	switch kind {
	case Tram:
		return tramTour(spec, rng)
	default:
		return pedestrianTour(spec, rng)
	}
}

// Tours generates n tours with consecutive sub-seeds, mirroring the
// paper's 10 tourists per setting.
func Tours(kind TourKind, spec TourSpec, n int, seed int64) []*Tour {
	out := make([]*Tour, n)
	for i := range out {
		out[i] = NewTour(kind, spec, rand.New(rand.NewSource(seed+int64(i)*7919)))
	}
	return out
}

// tramTour walks a Manhattan rail grid: straight runs along grid lines
// with random turns at intersections and a small lateral jitter standing
// in for head movement. Long straight segments make it the predictable
// setting.
func tramTour(spec TourSpec, rng *rand.Rand) *Tour {
	t := &Tour{Kind: Tram, Speed: spec.Speed, VMax: spec.VMax}
	gap := spec.RailGap
	step := spec.Speed * spec.VMax

	// Start at a random intersection away from the border.
	cols := int(spec.Space.Width()/gap) - 1
	rows := int(spec.Space.Height()/gap) - 1
	if cols < 2 {
		cols = 2
	}
	if rows < 2 {
		rows = 2
	}
	ix, iy := 1+rng.Intn(cols-1), 1+rng.Intn(rows-1)
	pos := geom.V2(spec.Space.Min.X+float64(ix)*gap, spec.Space.Min.Y+float64(iy)*gap)
	dirs := []geom.Vec2{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}
	dir := dirs[rng.Intn(4)]
	untilTurn := gap * float64(1+rng.Intn(4)) // run 1–4 blocks before a turn

	for i := 0; i < spec.Steps; i++ {
		jitter := geom.V2(rng.NormFloat64(), rng.NormFloat64()).Scale(0.01 * step)
		t.Pos = append(t.Pos, pos.Add(jitter))
		next := pos.Add(dir.Scale(step))
		// Bounce off the border by turning around.
		if !spec.Space.Contains(next) {
			dir = dir.Scale(-1)
			next = pos.Add(dir.Scale(step))
			untilTurn = gap * float64(1+rng.Intn(4))
		}
		pos = next
		untilTurn -= step
		if untilTurn <= 0 {
			// Turn left or right at the next intersection (or keep going).
			if rng.Float64() < 0.7 {
				if dir.X != 0 {
					dir = geom.V2(0, float64(1-2*rng.Intn(2)))
				} else {
					dir = geom.V2(float64(1-2*rng.Intn(2)), 0)
				}
				// Snap onto the rail grid so runs stay axis-aligned.
				pos = snapToGrid(pos, spec.Space.Min, gap)
			}
			untilTurn = gap * float64(1+rng.Intn(4))
		}
	}
	return t
}

func snapToGrid(p, origin geom.Vec2, gap float64) geom.Vec2 {
	return geom.V2(
		origin.X+math.Round((p.X-origin.X)/gap)*gap,
		origin.Y+math.Round((p.Y-origin.Y)/gap)*gap,
	)
}

// pedestrianTour is a correlated random walk: the heading drifts with
// Gaussian noise, the walker occasionally pauses, and the border deflects
// it inward. Frequent heading changes make it the unpredictable setting.
func pedestrianTour(spec TourSpec, rng *rand.Rand) *Tour {
	t := &Tour{Kind: Pedestrian, Speed: spec.Speed, VMax: spec.VMax}
	step := spec.Speed * spec.VMax
	pos := geom.V2(
		spec.Space.Min.X+spec.Space.Width()*(0.25+0.5*rng.Float64()),
		spec.Space.Min.Y+spec.Space.Height()*(0.25+0.5*rng.Float64()),
	)
	heading := rng.Float64() * 2 * math.Pi
	pausedFor := 0

	for i := 0; i < spec.Steps; i++ {
		t.Pos = append(t.Pos, pos)
		if pausedFor > 0 {
			pausedFor--
			continue
		}
		if rng.Float64() < spec.StopProb {
			pausedFor = 1 + rng.Intn(3)
			continue
		}
		heading += rng.NormFloat64() * 0.35
		d := geom.V2(math.Cos(heading), math.Sin(heading))
		next := pos.Add(d.Scale(step))
		if !spec.Space.Contains(next) {
			// Turn toward the center of the space.
			toCenter := spec.Space.Center().Sub(pos)
			heading = toCenter.Angle() + rng.NormFloat64()*0.3
			d = geom.V2(math.Cos(heading), math.Sin(heading))
			next = pos.Add(d.Scale(step))
			if !spec.Space.Contains(next) {
				next = pos
			}
		}
		pos = next
	}
	return t
}
