// Package workload generates the experimental datasets of paper §VII-A:
// city-scale collections of wavelet-decomposed 3D buildings distributed
// uniformly or Zipfian over a square data space, sized so that 100
// objects serialize to ≈ 20 MB, plus the query-frame sizing (5–20% of the
// space) the experiments sweep.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/mesh"
	"repro/internal/wavelet"
)

// Placement selects how objects are distributed over the space.
type Placement int

const (
	// Uniform scatters objects independently and uniformly.
	Uniform Placement = iota
	// Zipf concentrates objects around attraction centers with Zipfian
	// popularity — the skewed dataset of Figure 15.
	Zipf
)

func (p Placement) String() string {
	if p == Uniform {
		return "uniform"
	}
	return "zipf"
}

// Spec parameterizes dataset generation.
type Spec struct {
	Space      geom.Rect2 // data space; zero value → 1000×1000
	NumObjects int        // paper: 100/200/300/400 (≈ 20/40/60/80 MB)
	Levels     int        // subdivision depth J; 0 → 5 (≈ 200 KB per object)
	Placement  Placement
	Seed       int64
	Building   mesh.BuildingSpec // zero value → mesh.DefaultBuildingSpec
	DropFinals bool              // release refined meshes after neighbor lists
	Centers    int               // Zipf attraction centers; 0 → 16
}

func (s *Spec) fill() {
	if s.Space.Area() == 0 {
		s.Space = geom.R2(0, 0, 1000, 1000)
	}
	if s.Levels == 0 {
		s.Levels = 5
	}
	if s.Building == (mesh.BuildingSpec{}) {
		s.Building = mesh.DefaultBuildingSpec()
	}
	if s.Centers == 0 {
		s.Centers = 16
	}
	if s.NumObjects <= 0 {
		s.NumObjects = 100
	}
}

// Dataset is a generated object collection ready for indexing.
type Dataset struct {
	Spec  Spec
	Store *index.Store
}

// SizeBytes returns the serialized dataset size (the paper's 20–80 MB
// axis).
func (d *Dataset) SizeBytes() int64 { return d.Store.SizeBytes() }

// SizeMB returns the dataset size in megabytes.
func (d *Dataset) SizeMB() float64 { return float64(d.SizeBytes()) / 1e6 }

func (d *Dataset) String() string {
	return fmt.Sprintf("%d objects (%s, J=%d, %.1f MB)",
		d.Spec.NumObjects, d.Spec.Placement, d.Spec.Levels, d.SizeMB())
}

// QuerySide returns the query-frame side length for a given fraction of
// the data space (the paper's 5%, 10%, 15%, 20% query sizes).
func (d *Dataset) QuerySide(frac float64) float64 {
	return d.Spec.Space.Width() * frac
}

// Generate builds a reproducible dataset. If EnsureNeighbors will be
// needed (the naive index), set DropFinals=false or call it before
// dropping.
func Generate(spec Spec) *Dataset {
	spec.fill()
	rng := rand.New(rand.NewSource(spec.Seed))
	positions := placements(spec, rng)

	objs := make([]*wavelet.Decomposition, spec.NumObjects)
	for i := 0; i < spec.NumObjects; i++ {
		s := mesh.RandomBuilding(rng, positions[i], spec.Building)
		objs[i] = wavelet.Decompose(int32(i), mesh.BaseMeshFor(s), s, spec.Levels)
	}
	store := index.NewStore(objs)
	if spec.DropFinals {
		store.DropFinals()
	}
	return &Dataset{Spec: spec, Store: store}
}

// placements returns the ground positions of all objects. Buildings keep
// a margin from the border so their footprints stay inside the space.
func placements(spec Spec, rng *rand.Rand) []geom.Vec2 {
	margin := 2 * spec.Building.Footprint
	inner := spec.Space.Expand(-margin)
	if inner.Empty() {
		inner = spec.Space
	}
	out := make([]geom.Vec2, spec.NumObjects)
	switch spec.Placement {
	case Zipf:
		// Attraction centers with Zipfian popularity: center k is chosen
		// with probability ∝ 1/(k+1)^s, objects scatter around their center
		// with Gaussian spread.
		centers := make([]geom.Vec2, spec.Centers)
		for i := range centers {
			centers[i] = geom.V2(
				inner.Min.X+rng.Float64()*inner.Width(),
				inner.Min.Y+rng.Float64()*inner.Height(),
			)
		}
		z := rand.NewZipf(rng, 2.0, 1, uint64(spec.Centers-1))
		spread := inner.Width() / 20
		for i := range out {
			c := centers[z.Uint64()]
			p := geom.V2(c.X+rng.NormFloat64()*spread, c.Y+rng.NormFloat64()*spread)
			out[i] = clampTo(p, inner)
		}
	default:
		for i := range out {
			out[i] = geom.V2(
				inner.Min.X+rng.Float64()*inner.Width(),
				inner.Min.Y+rng.Float64()*inner.Height(),
			)
		}
	}
	return out
}

func clampTo(p geom.Vec2, r geom.Rect2) geom.Vec2 {
	if p.X < r.Min.X {
		p.X = r.Min.X
	}
	if p.X > r.Max.X {
		p.X = r.Max.X
	}
	if p.Y < r.Min.Y {
		p.Y = r.Min.Y
	}
	if p.Y > r.Max.Y {
		p.Y = r.Max.Y
	}
	return p
}
