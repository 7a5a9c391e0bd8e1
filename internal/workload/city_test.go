package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/index"
)

// smallCity is a city small enough for tests but large enough to span
// many pages and several blocks.
func smallCity(seed int64) CitySpec {
	return CitySpec{BlocksX: 3, BlocksY: 2, LotsPerBlock: 2, Levels: 2, Seed: seed}
}

func TestCityDeterministicBySeed(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.seg"), filepath.Join(dir, "b.seg")
	if err := BuildCitySegment(a, smallCity(42), 4096); err != nil {
		t.Fatal(err)
	}
	if err := BuildCitySegment(b, smallCity(42), 4096); err != nil {
		t.Fatal(err)
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatal("same seed produced different segment bytes")
	}

	// A different seed must differ (same shape, different content).
	c := filepath.Join(dir, "c.seg")
	if err := BuildCitySegment(c, smallCity(43), 4096); err != nil {
		t.Fatal(err)
	}
	dc, err := os.ReadFile(c)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(da, dc) {
		t.Fatal("different seeds produced identical segment bytes")
	}
}

func TestCityObjectIsolation(t *testing.T) {
	// CityObject(i) must not depend on other objects having been
	// generated: compare a coefficient stream generated in order against
	// single objects generated cold.
	spec := smallCity(7)
	store := GenerateCity(spec)
	for _, i := range []int{0, 3, spec.NumObjects() - 1} {
		d := CityObject(spec, i)
		want := store.Objects[i]
		if len(d.Coeffs) != len(want.Coeffs) {
			t.Fatalf("object %d: %d coeffs standalone vs %d in store", i, len(d.Coeffs), len(want.Coeffs))
		}
		for j := range d.Coeffs {
			if d.Coeffs[j] != want.Coeffs[j] {
				t.Fatalf("object %d coeff %d differs standalone vs in-store", i, j)
			}
		}
	}
}

func TestCityCountsAndBounds(t *testing.T) {
	spec := smallCity(11)
	if got, want := spec.NumObjects(), 3*2*2*2; got != want {
		t.Fatalf("NumObjects = %d, want %d", got, want)
	}
	store := GenerateCity(spec)
	if store.NumObjects() != spec.NumObjects() {
		t.Fatalf("store has %d objects, want %d", store.NumObjects(), spec.NumObjects())
	}
	// Every object is the same base shape at the same depth, so the
	// total divides evenly.
	per := len(store.Objects[0].Coeffs)
	if per == 0 {
		t.Fatal("object 0 has no coefficients")
	}
	if store.NumCoeffs() != int64(per*spec.NumObjects()) {
		t.Fatalf("NumCoeffs = %d, want %d × %d", store.NumCoeffs(), per, spec.NumObjects())
	}

	// All footprints stay inside the city space on the ground plane;
	// roughness can push vertices a little past the footprint, so allow
	// that margin. Nothing sits below ground level minus the margin.
	space := spec.Space()
	sp := spec
	sp.fill()
	margin := 2 * sp.Building.Footprint
	b := store.Bounds()
	if b.Min.X < space.Min.X-margin || b.Min.Y < space.Min.Y-margin ||
		b.Max.X > space.Max.X+margin || b.Max.Y > space.Max.Y+margin {
		t.Fatalf("city bounds %+v escape space %+v (margin %g)", b, space, margin)
	}
	if b.Max.Z <= 0 {
		t.Fatalf("city has no height: bounds %+v", b)
	}
	if b.Max.X-b.Min.X < space.Width()/2 {
		t.Fatalf("city occupies too little of its space: bounds %+v vs %+v", b, space)
	}
}

func TestCitySegmentMatchesGeneratedStore(t *testing.T) {
	spec := smallCity(5)
	store := GenerateCity(spec)
	path := filepath.Join(t.TempDir(), "city.seg")
	if err := BuildCitySegment(path, spec, 4096); err != nil {
		t.Fatal(err)
	}
	ps, err := index.OpenPaged(path, index.PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if ps.NumCoeffs() != store.NumCoeffs() || ps.NumObjects() != store.NumObjects() ||
		ps.BaseVerts() != store.BaseVerts() {
		t.Fatalf("segment shape %d/%d/%d vs store %d/%d/%d",
			ps.NumCoeffs(), ps.NumObjects(), ps.BaseVerts(),
			store.NumCoeffs(), store.NumObjects(), store.BaseVerts())
	}
	if ps.Bounds() != store.Bounds() {
		t.Fatalf("segment bounds %+v not float-identical to store bounds %+v", ps.Bounds(), store.Bounds())
	}
	if ps.Levels() != 2 {
		t.Fatalf("segment levels = %d, want 2", ps.Levels())
	}
	for id := int64(0); id < store.NumCoeffs(); id++ {
		if *index.MustCoeff(ps, id) != *index.MustCoeff(store, id) {
			t.Fatalf("coefficient %d differs between segment and store", id)
		}
	}

	// One layout and one writer: the streamed build is byte-for-byte
	// index.BuildSegment over the generated store, and leaves no
	// temporary segment behind.
	direct := filepath.Join(t.TempDir(), "direct.seg")
	if err := index.BuildSegment(direct, store, spec.Levels, 4096); err != nil {
		t.Fatal(err)
	}
	streamed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	built, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, built) {
		t.Fatalf("BuildCitySegment wrote %d bytes that differ from BuildSegment(GenerateCity)'s %d", len(streamed), len(built))
	}
	if left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*")); len(left) != 1 {
		t.Fatalf("the build left %v in its directory, want only the segment", left)
	}
}
