package wavelet

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
)

func benchSurface() *mesh.StarSurface {
	return mesh.RandomBuilding(rand.New(rand.NewSource(1)), geom.V2(0, 0),
		mesh.DefaultBuildingSpec())
}

func BenchmarkDecomposeJ4(b *testing.B) {
	s := benchSurface()
	base := mesh.BaseMeshFor(s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Decompose(0, base, s, 4)
	}
}

func BenchmarkDecomposeJ5(b *testing.B) {
	s := benchSurface()
	base := mesh.BaseMeshFor(s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Decompose(0, base, s, 5)
	}
}

func BenchmarkReconstructFull(b *testing.B) {
	s := benchSurface()
	d := Decompose(0, mesh.BaseMeshFor(s), s, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewReconstructor(d.Base, d.Bounds().Center(), d.J)
		r.ApplyAll(d.Coeffs)
		r.Mesh()
	}
}

// BenchmarkReconstructorApply is the client's cost of one newly seen
// object: a fresh reconstructor and the 258 coefficients of a J=3
// octahedron-based building, in arrival (coarse-to-fine) order.
func BenchmarkReconstructorApply(b *testing.B) {
	s := benchSurface()
	d := Decompose(0, mesh.BaseMeshFor(s), s, 3)
	if len(d.Coeffs) != 258 {
		b.Fatalf("%d coefficients, want 258", len(d.Coeffs))
	}
	center := d.Bounds().Center()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReconstructor(d.Base, center, d.J)
		for j := range d.Coeffs {
			r.Apply(d.Coeffs[j])
		}
	}
}

func BenchmarkCountAtLeast(b *testing.B) {
	s := benchSurface()
	d := Decompose(0, mesh.BaseMeshFor(s), s, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.CountAtLeast(0.5)
	}
}
