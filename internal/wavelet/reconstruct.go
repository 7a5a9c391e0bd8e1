package wavelet

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// Schema is what every object of a scene shares on the client: the base
// topology M^0 and the vertex count of each level M^0..M^J, so a vertex
// id maps to the level that first holds it by a lookup. A client builds
// it once, at its handshake, and every object's Reconstructor points at
// it; it is never written after NewSchema returns.
type Schema struct {
	base   *mesh.Mesh // positions ignored; topology drives subdivision
	levels int
	// sizes[j] is the vertex count of M^j. It stops at the deepest level
	// whose vertex ids still fit an int32 (level 14 on the octahedron):
	// no wire record can name a vertex past it.
	sizes []int
}

// NewSchema returns the schema of objects subdividing base's topology
// levels times, or an error when levels is negative or past the deepest
// level whose vertex ids fit an int32.
func NewSchema(base *mesh.Mesh, levels int) (*Schema, error) {
	if levels < 0 {
		return nil, fmt.Errorf("wavelet: %d subdivision levels", levels)
	}
	s := newSchema(base.Clone(), levels)
	if deepest := len(s.sizes) - 1; deepest < levels {
		return nil, fmt.Errorf("wavelet: %d subdivision levels, but level %d is the deepest whose vertex ids fit an int32", levels, deepest)
	}
	return s, nil
}

// newSchema builds the level table of base, which it keeps. Each 1→4
// step adds one vertex per edge, doubles the edges and adds three per
// face, and quadruples the faces.
func newSchema(base *mesh.Mesh, levels int) *Schema {
	s := &Schema{base: base, levels: levels, sizes: []int{base.NumVerts()}}
	if levels <= 0 {
		return s
	}
	verts, edges, faces := int64(base.NumVerts()), int64(base.NumEdges()), int64(base.NumFaces())
	for j := 0; j < levels && edges > 0; j++ {
		verts, edges, faces = verts+edges, 2*edges+3*faces, 4*faces
		if verts > math.MaxInt32 {
			break
		}
		s.sizes = append(s.sizes, int(verts))
	}
	return s
}

// Levels returns the subdivision depth J.
func (s *Schema) Levels() int { return s.levels }

// BaseVerts returns the vertex count of the base topology M^0.
func (s *Schema) BaseVerts() int { return s.sizes[0] }

// levelSize returns the vertex count of the coarsest level M^j, j ≤
// levels, that contains vertex v ≥ 0, or 0 when v lies outside the final
// topology.
func (s *Schema) levelSize(v int) int {
	for _, n := range s.sizes {
		if v < n {
			return n
		}
	}
	return 0
}

// NewReconstructor creates the client-side state for one object of the
// schema, whose base vertices without data sit at center.
func (s *Schema) NewReconstructor(center geom.Vec3) *Reconstructor {
	return &Reconstructor{schema: s, center: center}
}

// Reconstructor rebuilds an object's mesh from whatever subset of wavelet
// coefficients the client has received so far. It models the client-side
// rendering state: applying more coefficients monotonically sharpens the
// mesh toward M^J. Reconstruction replays the deterministic subdivision of
// the base topology, so vertex ids assigned during reconstruction match
// the ids recorded at decomposition time.
type Reconstructor struct {
	schema *Schema
	center geom.Vec3 // placeholder for vertices with no data yet
	// Vertex ids are dense — [0, V_J) in the final topology M^J — so the
	// received displacements live in vertex-indexed slices: disp holds
	// the displacement (the position, for a base vertex) and state the
	// vertexHave/vertexBase flags. Coarse levels arrive first, so the
	// slices hold the coarsest level that contains every id seen (or
	// reserved), and grow by one exact-size allocation each when a
	// higher id crosses into a finer level.
	disp  []geom.Vec3
	state []uint8
	count int
}

const (
	vertexHave uint8 = 1 << iota // a coefficient for the vertex was applied
	vertexBase                   // …and one of them was a base pseudo-coefficient
)

// NewReconstructor creates the client-side state for one object. The
// client is assumed to know the object's subdivision schema (base topology
// and level count) and its placement center — both are tiny compared to
// the coefficient payload — but no geometry. A client holding many
// objects of one schema builds it once with NewSchema instead.
func NewReconstructor(baseTopology *mesh.Mesh, center geom.Vec3, levels int) *Reconstructor {
	return newSchema(baseTopology.Clone(), levels).NewReconstructor(center)
}

// Reserve sizes the vertex slices for the coarsest level containing
// vertex, so applying any id up to it allocates nothing. An id outside
// the final topology, or one already covered, changes nothing.
func (r *Reconstructor) Reserve(vertex int32) {
	if v := int(vertex); v >= len(r.disp) {
		r.grow(v)
	}
}

// grow resizes the vertex slices to the level containing v ≥ len(r.disp)
// and reports whether v lies in the final topology.
func (r *Reconstructor) grow(v int) bool {
	n := r.schema.levelSize(v)
	if n == 0 {
		return false
	}
	disp, state := make([]geom.Vec3, n), make([]uint8, n)
	copy(disp, r.disp)
	copy(state, r.state)
	r.disp, r.state = disp, state
	return true
}

// Apply records one received coefficient. Applying the same coefficient
// twice is harmless (idempotent), mirroring the server-side duplicate
// filtering being an optimization rather than a correctness requirement.
// A vertex id outside the object's final topology names nothing Mesh
// could place and is ignored.
func (r *Reconstructor) Apply(c Coefficient) {
	r.ApplyDelta(c.Vertex, c.Delta, c.Level == BaseLevel)
}

// ApplyDelta is Apply given only what reconstruction reads of a
// coefficient: its vertex id, its displacement (the position, for a
// base vertex) and whether it is a base pseudo-coefficient. The wire
// client applies received records through it.
func (r *Reconstructor) ApplyDelta(vertex int32, delta geom.Vec3, base bool) {
	v := int(vertex)
	if v < 0 || v >= len(r.disp) && !r.grow(v) {
		return
	}
	if r.state[v]&vertexHave == 0 {
		r.count++
	}
	r.disp[v] = delta
	r.state[v] |= vertexHave
	if base {
		r.state[v] |= vertexBase
	}
}

// Count returns the number of distinct coefficients applied so far.
func (r *Reconstructor) Count() int { return r.count }

// Mesh reconstructs the object at the full topology M^J using every
// coefficient applied so far. Vertices whose coefficients have not arrived
// sit at the midpoint of their parents (zero displacement); base vertices
// without data collapse to the object center.
func (r *Reconstructor) Mesh() *mesh.Mesh {
	m := r.schema.base.Clone()
	for i := range m.Verts {
		if i < len(r.state) && r.state[i]&vertexBase != 0 {
			m.Verts[i] = r.disp[i]
		} else {
			m.Verts[i] = r.center
		}
	}
	for j := 0; j < r.schema.levels; j++ {
		fine, splits := mesh.Subdivide(m)
		for _, sp := range splits {
			if v := int(sp.Vertex); v < len(r.state) && r.state[v]&vertexHave != 0 {
				fine.Verts[v] = fine.Verts[v].Add(r.disp[v])
			}
		}
		m = fine
	}
	return m
}

// Error returns the root-mean-square vertex distance between the
// reconstruction and the reference mesh (typically Decomposition.Final).
// It panics if the vertex counts differ, which would indicate mismatched
// subdivision schemas.
func (r *Reconstructor) Error(ref *mesh.Mesh) float64 {
	m := r.Mesh()
	if m.NumVerts() != ref.NumVerts() {
		panic("wavelet: reconstruction topology mismatch")
	}
	var sum float64
	for i := range m.Verts {
		d := m.Verts[i].Dist(ref.Verts[i])
		sum += d * d
	}
	return math.Sqrt(sum / float64(m.NumVerts()))
}

// ApplyAll applies a batch of coefficients.
func (r *Reconstructor) ApplyAll(cs []Coefficient) {
	for i := range cs {
		r.Apply(cs[i])
	}
}
