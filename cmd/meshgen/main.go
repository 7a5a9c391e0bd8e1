// Command meshgen generates one multiresolution building and reports its
// wavelet decomposition: per-level coefficient counts, magnitude and
// value statistics, serialized sizes, and the reconstruction error at a
// sweep of resolution cutoffs. With -obj it also writes Wavefront OBJ
// files of the reconstruction at several resolutions, ready for any mesh
// viewer.
//
// Usage:
//
//	meshgen [-levels 5] [-seed 1] [-obj building]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/persist"
	"repro/internal/wavelet"
)

func main() {
	var (
		levels = flag.Int("levels", 5, "subdivision levels")
		seed   = flag.Int64("seed", 1, "building seed")
		objOut = flag.String("obj", "", "write OBJ files with this prefix")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	surf := mesh.RandomBuilding(rng, geom.V2(0, 0), mesh.DefaultBuildingSpec())
	d := wavelet.Decompose(0, mesh.BaseMeshFor(surf), surf, *levels)

	fmt.Printf("building (seed %d), %d subdivision levels\n", *seed, *levels)
	fmt.Printf("final mesh: %d vertices, %d faces\n",
		d.Final.NumVerts(), d.Final.NumFaces())
	fmt.Printf("total: %d coefficients, %.1f KB serialized\n\n",
		d.NumCoeffs(), float64(d.SizeBytes())/1024)

	fmt.Printf("%-8s%10s%12s%12s%12s\n", "level", "coeffs", "avg |d|", "avg w", "KB")
	for lvl := int8(wavelet.BaseLevel); lvl < int8(*levels); lvl++ {
		cs := d.LevelOf(lvl)
		if len(cs) == 0 {
			continue
		}
		var mag, val float64
		for i := range cs {
			mag += cs[i].Delta.Len()
			val += cs[i].Value
		}
		name := fmt.Sprintf("W%d", lvl)
		if lvl == wavelet.BaseLevel {
			name = "base"
		}
		fmt.Printf("%-8s%10d%12.4f%12.4f%12.1f\n",
			name, len(cs),
			mag/float64(len(cs)), val/float64(len(cs)),
			float64(len(cs)*wavelet.WireBytes)/1024)
	}

	fmt.Printf("\n%-12s%12s%14s\n", "cutoff w", "coeffs", "RMS error")
	for _, w := range []float64{1.0, 0.8, 0.6, 0.4, 0.2, 0.0} {
		r := wavelet.NewReconstructor(d.Base, d.Bounds().Center(), d.J)
		kept := 0
		for i := range d.Coeffs {
			if d.Coeffs[i].Value >= w {
				r.Apply(d.Coeffs[i])
				kept++
			}
		}
		fmt.Printf("%-12.1f%12d%14.6f\n", w, kept, r.Error(d.Final))
		if *objOut != "" {
			name := fmt.Sprintf("%s_w%02.0f.obj", *objOut, w*10)
			if err := writeOBJ(name, r.Mesh()); err != nil {
				log.Fatalf("meshgen: %v", err)
			}
			fmt.Printf("            wrote %s\n", name)
		}
	}
}

// writeOBJ dumps a mesh via the library's OBJ writer, atomically, so an
// interrupted run never leaves a half-written file behind.
func writeOBJ(path string, m *mesh.Mesh) error {
	return persist.WriteToAtomic(path, func(w io.Writer) error {
		return mesh.WriteOBJ(w, m)
	})
}
