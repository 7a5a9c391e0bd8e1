// City generation: the deterministic street-grid workload behind the
// out-of-core store. A city is a grid of blocks separated by streets;
// each block is a grid of lots, each lot one building. Unlike Generate,
// whose single rng makes object i depend on all earlier draws, every
// city object is generated from its own seed (mixed from the city seed
// and the object index), so one object — or one segment record — can be
// produced in isolation: BuildCitySegment streams a 10⁵–10⁶-object city
// straight to disk without ever holding more than one decomposition in
// memory.
package workload

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/mesh"
	"repro/internal/persist"
	"repro/internal/wavelet"
)

// CitySpec parameterizes a deterministic city.
type CitySpec struct {
	// BlocksX and BlocksY are the street-grid dimensions (0 → 16 each).
	// Objects = BlocksX × BlocksY × LotsPerBlock².
	BlocksX int
	BlocksY int
	// LotsPerBlock is the side of the per-block lot grid (0 → 5, i.e.
	// 25 buildings per block).
	LotsPerBlock int
	// Levels is the subdivision depth per building (0 → 3; city scale
	// trades per-object detail for object count).
	Levels int
	// Seed makes the whole city reproducible; object i depends only on
	// (Seed, i).
	Seed int64
	// Building shapes the buildings (zero → mesh.DefaultBuildingSpec).
	Building mesh.BuildingSpec
	// StreetWidth separates blocks (0 → 2 × the building footprint).
	StreetWidth float64
}

func (s *CitySpec) fill() {
	if s.BlocksX <= 0 {
		s.BlocksX = 16
	}
	if s.BlocksY <= 0 {
		s.BlocksY = 16
	}
	if s.LotsPerBlock <= 0 {
		s.LotsPerBlock = 5
	}
	if s.Levels <= 0 {
		s.Levels = 3
	}
	if s.Building == (mesh.BuildingSpec{}) {
		s.Building = mesh.DefaultBuildingSpec()
	}
	if s.StreetWidth <= 0 {
		s.StreetWidth = 2 * s.Building.Footprint
	}
}

// lotSize is the square a lot occupies; the building's footprint plus
// breathing room for jitter.
func (s *CitySpec) lotSize() float64 { return 4 * s.Building.Footprint }

// blockPitch is the period of the street grid: one block of lots plus
// one street.
func (s *CitySpec) blockPitch() float64 {
	return float64(s.LotsPerBlock)*s.lotSize() + s.StreetWidth
}

// NumObjects returns the city's object count.
func (s CitySpec) NumObjects() int {
	s.fill()
	return s.BlocksX * s.BlocksY * s.LotsPerBlock * s.LotsPerBlock
}

// Space returns the city's ground-plane extent (streets border the
// outermost blocks too).
func (s CitySpec) Space() geom.Rect2 {
	s.fill()
	w := float64(s.BlocksX)*s.blockPitch() + s.StreetWidth
	h := float64(s.BlocksY)*s.blockPitch() + s.StreetWidth
	return geom.R2(0, 0, w, h)
}

func (s CitySpec) String() string {
	s.fill()
	return fmt.Sprintf("city %dx%d blocks × %d² lots = %d objects (J=%d, seed %d)",
		s.BlocksX, s.BlocksY, s.LotsPerBlock, s.NumObjects(), s.Levels, s.Seed)
}

// mix folds the city seed and an object index into an independent
// per-object seed (splitmix-style odd-constant multiply-xor; adjacent
// indexes land in unrelated rng states).
func mix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// cityCenter returns object i's lot center: row-major over
// (blockY, blockX, lotY, lotX), jittered inside the lot by the object's
// own rng so façades don't align into an artificial super-grid.
func (s *CitySpec) cityCenter(i int, rng *rand.Rand) geom.Vec2 {
	lots := s.LotsPerBlock
	lx := i % lots
	ly := (i / lots) % lots
	bx := (i / (lots * lots)) % s.BlocksX
	by := i / (lots * lots * s.BlocksX)
	lot := s.lotSize()
	baseX := s.StreetWidth + float64(bx)*s.blockPitch() + (float64(lx)+0.5)*lot
	baseY := s.StreetWidth + float64(by)*s.blockPitch() + (float64(ly)+0.5)*lot
	// Jitter keeps the footprint inside the lot: |jitter| ≤ (lot -
	// 2·footprint)/2 per axis.
	j := (lot - 2*s.Building.Footprint) / 2
	return geom.V2(
		baseX+(rng.Float64()*2-1)*j,
		baseY+(rng.Float64()*2-1)*j,
	)
}

// CityObject generates object i of the city in isolation — the unit of
// streaming. The result depends only on (spec, i).
func CityObject(spec CitySpec, i int) *wavelet.Decomposition {
	spec.fill()
	if i < 0 || i >= spec.NumObjects() {
		panic(fmt.Sprintf("workload: city object %d out of range [0, %d)", i, spec.NumObjects()))
	}
	rng := rand.New(rand.NewSource(mix(spec.Seed, i)))
	s := mesh.RandomBuilding(rng, (&spec).cityCenter(i, rng), spec.Building)
	d := wavelet.Decompose(int32(i), mesh.BaseMeshFor(s), s, spec.Levels)
	d.DropFinal()
	return d
}

// GenerateCity materializes the whole city as an in-memory store — the
// oracle the paged store is compared against, and the -store=mem boot
// path. For city sizes beyond RAM use BuildCitySegment instead.
func GenerateCity(spec CitySpec) *index.Store {
	spec.fill()
	objs := make([]*wavelet.Decomposition, spec.NumObjects())
	for i := range objs {
		objs[i] = CityObject(spec, i)
	}
	return index.NewStore(objs)
}

// BuildCitySegment streams the city into a coefficient segment file at
// path without materializing it: one object is generated, serialized,
// and dropped at a time into an identity-ordered temporary segment next
// to path, which index.BuildSegment then lays out band-major and which
// is removed afterwards. The result is byte-identical to
// index.BuildSegment over GenerateCity's store (bounds are accumulated
// in the same object order Store.Bounds unions them, so even the
// handshake floats match). pageSize 0 uses the persist default.
func BuildCitySegment(path string, spec CitySpec, pageSize int) error {
	spec.fill()
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.unsorted")
	if err != nil {
		return err
	}
	tmp := f.Name()
	f.Close()
	defer os.Remove(tmp)
	sp := persist.SegmentSpec{PageSize: pageSize, RecordSize: index.CoeffRecordSize}
	err = persist.WriteSegment(tmp, sp, func(a *persist.SegmentAppender) ([]byte, error) {
		n := spec.NumObjects()
		offsets := make([]int64, n)
		var bounds geom.Rect3
		baseVerts := 0
		for i := 0; i < n; i++ {
			d := CityObject(spec, i)
			offsets[i] = a.Count()
			if i == 0 {
				baseVerts = d.Base.NumVerts()
				bounds = d.Bounds()
			} else {
				bounds = bounds.Union(d.Bounds())
			}
			for j := range d.Coeffs {
				rec, err := a.Reserve()
				if err != nil {
					return nil, err
				}
				index.PutCoeffRecord(rec, &d.Coeffs[j])
			}
		}
		identity := make([]uint32, a.Count())
		for id := range identity {
			identity[id] = uint32(id)
		}
		return index.EncodeSegmentMeta(spec.Levels, baseVerts, bounds, offsets, identity), nil
	})
	if err != nil {
		return err
	}
	src, err := index.OpenPaged(tmp, index.PagedConfig{})
	if err != nil {
		return err
	}
	defer src.Close()
	return index.BuildSegment(path, src, spec.Levels, pageSize)
}
