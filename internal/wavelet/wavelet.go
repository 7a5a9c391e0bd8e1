// Package wavelet implements the lazy-wavelet multiresolution
// representation of 3D objects described in §III of the paper: a base mesh
// M0 plus, per subdivision level, a set of wavelet coefficients recording
// the displacement of each edge-midpoint vertex from its midpoint to the
// target surface. Each coefficient carries a normalized magnitude
// w ∈ [0, 1] (its "geometric influence") and the minimum bounding box of
// its support region — the region of the finer mesh the coefficient
// contributes to during reconstruction (§VI-A).
package wavelet

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// MinimalWireBytes is the information-theoretically lean encoding of a
// coefficient: vertex id (4, object implied by the stream) plus the
// displacement quantized to 3 × float32 (12). Everything else — level,
// parent edge, even the value — is implied by the deterministic
// subdivision schema and the server's transmission order. This is the
// figure of merit for the §II compactness comparison against progressive
// meshes, whose per-record connectivity information cannot be elided.
const MinimalWireBytes = 16

// BaseLevel marks pseudo-coefficients representing base-mesh vertices.
// Base vertices have no parent edge; their "displacement" is their
// absolute position and their value is pinned to 1.0, since "all the
// vertices in the coarsest version of an object have coefficient values
// 1.0" (§VII-A).
const BaseLevel = -1

// Coefficient is one wavelet coefficient of one object.
type Coefficient struct {
	Object  int32      // owning object id
	Vertex  int32      // vertex index in the final mesh M^J (unique per object)
	Level   int8       // subdivision level of the split (BaseLevel for base vertices)
	Parent  mesh.Edge  // the coarser-level edge this vertex bisects (unset for base)
	Delta   geom.Vec3  // displacement from edge midpoint to fitted vertex (position for base)
	Pos     geom.Vec3  // fitted vertex position in M^J
	Value   float64    // normalized magnitude w ∈ [0, 1]
	Support geom.Rect3 // MBB of the support region in object space
}

// Key uniquely identifies a coefficient across all objects.
type Key struct {
	Object int32
	Vertex int32
}

// Key returns the coefficient's global identity.
func (c *Coefficient) Key() Key { return Key{Object: c.Object, Vertex: c.Vertex} }

func (c *Coefficient) String() string {
	return fmt.Sprintf("coeff{obj=%d v=%d level=%d w=%.3f}", c.Object, c.Vertex, c.Level, c.Value)
}

// Decomposition is the full multiresolution representation of one object:
// the base mesh M0 and the coefficient sets W0..W(J−1). Coeffs holds base
// pseudo-coefficients first, then W0, W1, ..., so a prefix ordered by
// level is always a valid progressive transmission order.
type Decomposition struct {
	Object int32
	Base   *mesh.Mesh
	J      int           // number of subdivision levels
	Coeffs []Coefficient // base pseudo-coeffs, then levels 0..J−1
	Final  *mesh.Mesh    // M^J, kept for error measurement
	bounds geom.Rect3
}

// Bounds returns the bounding box of the fully refined object.
func (d *Decomposition) Bounds() geom.Rect3 { return d.bounds }

// DropFinal releases the fully refined mesh M^J, which only error
// measurement needs. Server-side stores covering hundreds of objects call
// this to keep memory proportional to the coefficient payload.
func (d *Decomposition) DropFinal() { d.Final = nil }

// NumCoeffs returns the total number of coefficients including base
// pseudo-coefficients.
func (d *Decomposition) NumCoeffs() int { return len(d.Coeffs) }

// SizeBytes returns the serialized size of the whole object.
func (d *Decomposition) SizeBytes() int { return len(d.Coeffs) * WireBytes }

// LevelOf returns the coefficients of one level (BaseLevel for the base
// set) as a sub-slice of Coeffs.
func (d *Decomposition) LevelOf(level int8) []Coefficient {
	lo := 0
	for lo < len(d.Coeffs) && d.Coeffs[lo].Level < level {
		lo++
	}
	hi := lo
	for hi < len(d.Coeffs) && d.Coeffs[hi].Level == level {
		hi++
	}
	return d.Coeffs[lo:hi]
}

// Decompose builds the multiresolution representation of the object whose
// geometry is the given surface, starting from base (already fitted to the
// surface) and refining J levels. The base mesh is cloned; the caller may
// reuse it.
func Decompose(object int32, base *mesh.Mesh, s mesh.Surface, J int) *Decomposition {
	d := &Decomposition{Object: object, Base: base.Clone(), J: J}

	// Base pseudo-coefficients: value pinned to 1.0, Delta = position.
	for i, v := range d.Base.Verts {
		d.Coeffs = append(d.Coeffs, Coefficient{
			Object:  object,
			Vertex:  int32(i),
			Level:   BaseLevel,
			Delta:   v,
			Pos:     v,
			Value:   1.0,
			Support: geom.Rect3At(v),
		})
	}

	m := d.Base.Clone()
	numBase := len(d.Coeffs)
	levelStart := make([]int, 0, J+1)
	for j := 0; j < J; j++ {
		levelStart = append(levelStart, len(d.Coeffs))
		fine, splits := mesh.Subdivide(m)
		// Fit all midpoints first so support regions are measured on the
		// final geometry of level j+1.
		deltas := make([]geom.Vec3, len(splits))
		for i, sp := range splits {
			midp := fine.Verts[sp.Vertex]
			fitted := s.Project(midp)
			deltas[i] = fitted.Sub(midp)
			fine.Verts[sp.Vertex] = fitted
		}
		around := fine.FacesAround()
		for i, sp := range splits {
			c := Coefficient{
				Object: object,
				Vertex: sp.Vertex,
				Level:  int8(j),
				Parent: sp.Parent,
				Delta:  deltas[i],
				Pos:    fine.Verts[sp.Vertex],
				Value:  deltas[i].Len(), // normalized below
			}
			// Support region: union of faces of M^{j+1} incident to the new
			// vertex (paper §VI-A, e.g. polygon (1,4,2,5,6) around vertex 4).
			sup := geom.Rect3At(fine.Verts[sp.Vertex])
			for _, fi := range around[sp.Vertex] {
				f := fine.Faces[fi]
				sup = sup.AddPoint(fine.Verts[f[0]])
				sup = sup.AddPoint(fine.Verts[f[1]])
				sup = sup.AddPoint(fine.Verts[f[2]])
			}
			c.Support = sup
			d.Coeffs = append(d.Coeffs, c)
		}
		m = fine
	}
	levelStart = append(levelStart, len(d.Coeffs))
	d.Final = m
	d.bounds = m.Bounds()

	// Normalize magnitudes to [0, 1] with per-level banding: level j's
	// coefficients occupy the value band ((J−1−j)/J, (J−j)/J], ordered by
	// magnitude within the band, and base pseudo-coefficients stay at 1.0.
	// The banding makes the coefficient value the level-of-detail dial the
	// paper's speed→resolution mapping turns: retrieving w ≥ s yields the
	// coarsest ≈(1−s)·J levels. Magnitude order is preserved within each
	// level (and, because displacements shrink across levels, largely
	// across them), so larger values still mean larger geometric
	// influence.
	for j := 0; j < J; j++ {
		lo := float64(J-1-j) / float64(J)
		hi := float64(J-j) / float64(J)
		seg := d.Coeffs[levelStart[j]:levelStart[j+1]]
		var maxMag float64
		for i := range seg {
			if seg[i].Value > maxMag {
				maxMag = seg[i].Value
			}
		}
		for i := range seg {
			if maxMag > 0 {
				seg[i].Value = lo + (hi-lo)*seg[i].Value/maxMag
			} else {
				seg[i].Value = (lo + hi) / 2
			}
		}
	}

	// Base support regions: a base vertex influences every face around it
	// in M0; give it the MBB of those faces so even the coarsest query
	// retrieval is support-region driven.
	around := d.Base.FacesAround()
	for i := 0; i < numBase; i++ {
		sup := geom.Rect3At(d.Base.Verts[i])
		for _, fi := range around[i] {
			f := d.Base.Faces[fi]
			sup = sup.AddPoint(d.Base.Verts[f[0]])
			sup = sup.AddPoint(d.Base.Verts[f[1]])
			sup = sup.AddPoint(d.Base.Verts[f[2]])
		}
		d.Coeffs[i].Support = sup
	}
	return d
}

// CountAtLeast returns how many coefficients have Value ≥ w. This is the
// payload size of a full-object retrieval at resolution w.
func (d *Decomposition) CountAtLeast(w float64) int {
	n := 0
	for i := range d.Coeffs {
		if d.Coeffs[i].Value >= w {
			n++
		}
	}
	return n
}

// MaxLevelVertex returns the number of vertices of the final mesh, which
// is also one past the largest coefficient Vertex id.
func (d *Decomposition) MaxLevelVertex() int { return d.Final.NumVerts() }

// SupportSubsetProperty checks the §VI-A containment property on this
// decomposition for a given query box and coefficient: the region of a
// sub-query affected by a coefficient's support region is contained in the
// region affected within any enclosing query. It returns an error if the
// property is violated (used by property tests; always nil for correct
// geometry since R2 ⊆ R1 ⇒ R2∩r ⊆ R1∩r).
func SupportSubsetProperty(outer, inner, support geom.Rect3) error {
	if !outer.ContainsRect(inner) {
		return fmt.Errorf("inner %v not inside outer %v", inner, outer)
	}
	ri := intersect3(inner, support)
	ro := intersect3(outer, support)
	if !ri.Empty() && !ro.ContainsRect(ri) {
		return fmt.Errorf("affected region %v escapes %v", ri, ro)
	}
	return nil
}

func intersect3(a, b geom.Rect3) geom.Rect3 {
	return geom.Rect3{
		Min: geom.V3(math.Max(a.Min.X, b.Min.X), math.Max(a.Min.Y, b.Min.Y), math.Max(a.Min.Z, b.Min.Z)),
		Max: geom.V3(math.Min(a.Max.X, b.Max.X), math.Min(a.Max.Y, b.Max.Y), math.Min(a.Max.Z, b.Max.Z)),
	}
}
