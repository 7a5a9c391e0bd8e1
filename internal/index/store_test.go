package index

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// TestStorePinsMatchCoeff: the resident pin set resolves every id to the
// very pointer Store.Coeff returns, whatever the read order — ascending
// (its one-range-check path, crossing every object boundary), descending
// and random (its fallback to objectOf) — and Release keeps it usable.
func TestStorePinsMatchCoeff(t *testing.T) {
	s := testStore(t, 7, 20)
	n := s.NumCoeffs()
	asc := make([]int64, n)
	for i := range asc {
		asc[i] = int64(i)
	}
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	random := slices.Clone(asc)
	rand.New(rand.NewSource(3)).Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
	pins := s.NewPins()
	for name, ids := range map[string][]int64{"ascending": asc, "descending": desc, "random": random} {
		for _, id := range ids {
			got, err := pins.Coeff(id)
			if err != nil || got != MustCoeff(s, id) {
				t.Fatalf("%s: Pins.Coeff(%d) = %p, %v; Store.Coeff gives %p", name, id, got, err, MustCoeff(s, id))
			}
		}
		pins.Release()
	}
}

// TestStorePinsAllocFree: a warmed-up resident pin set reads and
// releases without allocating.
func TestStorePinsAllocFree(t *testing.T) {
	s := testStore(t, 4, 23)
	pins := s.NewPins()
	n := s.NumCoeffs()
	read := func() {
		for id := int64(0); id < n; id += 3 {
			if _, err := pins.Coeff(id); err != nil {
				t.Fatal(err)
			}
		}
		pins.Coeff(n / 2)
		pins.Release()
	}
	read()
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Fatalf("%v allocations per pass, want 0", allocs)
	}
}

func TestObjectOfBinarySearch(t *testing.T) {
	s := testStore(t, 7, 20)
	// Every boundary id must resolve to the right object: first and last
	// coefficient of each object.
	var offset int64
	for obj := 0; obj < 7; obj++ {
		n := int64(len(s.Objects[obj].Coeffs))
		first := MustCoeff(s, offset)
		last := MustCoeff(s, offset+n-1)
		if first.Object != int32(obj) || first.Vertex != 0 {
			t.Fatalf("object %d first: %v", obj, first)
		}
		if last.Object != int32(obj) || last.Vertex != int32(n-1) {
			t.Fatalf("object %d last: %v", obj, last)
		}
		offset += n
	}
}

func TestNewStoreRejectsMisnumberedObjects(t *testing.T) {
	s := testStore(t, 2, 21)
	objs := s.Objects
	objs[0], objs[1] = objs[1], objs[0] // ids no longer match positions
	defer func() {
		if recover() == nil {
			t.Error("expected panic for misnumbered objects")
		}
	}()
	NewStore(objs)
}

func TestXYZWZBandFiltering(t *testing.T) {
	s := testStore(t, 6, 22)
	idx := NewMotionAware(s, XYZW, rtree.Config{})
	region := geom.R2(0, 0, 1000, 1000)
	// The full z band sees everything the ground layout sees.
	all, _ := idx.Search(Query{Region: region, ZMin: -1e9, ZMax: 1e9, WMin: 0, WMax: 1})
	if int64(len(all)) != s.NumCoeffs() {
		t.Fatalf("full z band returned %d of %d", len(all), s.NumCoeffs())
	}
	// A ground-level slice excludes coefficients whose support lies
	// entirely above it.
	low, _ := idx.Search(Query{Region: region, ZMin: 0, ZMax: 2, WMin: 0, WMax: 1})
	if len(low) == 0 || len(low) >= len(all) {
		t.Fatalf("low slice returned %d of %d", len(low), len(all))
	}
	for _, id := range low {
		if MustCoeff(s, id).Support.Min.Z > 2 {
			t.Fatalf("coefficient above the z band returned")
		}
	}
	// An empty band above all buildings returns nothing.
	sky, _ := idx.Search(Query{Region: region, ZMin: 1e6, ZMax: 2e6, WMin: 0, WMax: 1})
	if len(sky) != 0 {
		t.Fatalf("sky band returned %d", len(sky))
	}
}

func TestLayoutStrings(t *testing.T) {
	if XYW.String() != "xyw" || XYZW.String() != "xyzw" {
		t.Error("layout names")
	}
}
