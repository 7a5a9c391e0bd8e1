package wavelet

import (
	"math"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// Reconstructor rebuilds an object's mesh from whatever subset of wavelet
// coefficients the client has received so far. It models the client-side
// rendering state: applying more coefficients monotonically sharpens the
// mesh toward M^J. Reconstruction replays the deterministic subdivision of
// the base topology, so vertex ids assigned during reconstruction match
// the ids recorded at decomposition time.
type Reconstructor struct {
	baseTopology *mesh.Mesh // positions ignored; topology drives subdivision
	center       geom.Vec3  // placeholder for vertices with no data yet
	levels       int
	// Vertex ids are dense — [0, V_J) in the final topology M^J — so the
	// received displacements live in vertex-indexed slices: disp holds
	// the displacement (the position, for a base vertex) and state the
	// vertexHave/vertexBase flags. Coarse levels arrive first, so the
	// slices are sized one subdivision level at a time (see levelSize).
	// baseEdges is counted when the first detail vertex arrives: an
	// object known only by its base never needs it.
	baseEdges int
	disp      []geom.Vec3
	state     []uint8
	count     int
}

const (
	vertexHave uint8 = 1 << iota // a coefficient for the vertex was applied
	vertexBase                   // …and one of them was a base pseudo-coefficient
)

// NewReconstructor creates the client-side state for one object. The
// client is assumed to know the object's subdivision schema (base topology
// and level count) and its placement center — both are tiny compared to
// the coefficient payload — but no geometry.
func NewReconstructor(baseTopology *mesh.Mesh, center geom.Vec3, levels int) *Reconstructor {
	return &Reconstructor{
		baseTopology: baseTopology.Clone(),
		center:       center,
		levels:       levels,
	}
}

// levelSize returns the vertex count of the coarsest level M^j, j ≤
// levels, that contains vertex v, or 0 when v lies outside the final
// topology. Each 1→4 step adds one vertex per edge, doubles the edges and
// adds three per face, and quadruples the faces.
func (r *Reconstructor) levelSize(v int) int {
	verts := int64(r.baseTopology.NumVerts())
	if int64(v) < verts {
		return int(verts)
	}
	if r.baseEdges == 0 {
		r.baseEdges = r.baseTopology.NumEdges()
	}
	edges, faces := int64(r.baseEdges), int64(r.baseTopology.NumFaces())
	for j := 0; int64(v) >= verts; j++ {
		if j >= r.levels {
			return 0
		}
		verts, edges, faces = verts+edges, 2*edges+3*faces, 4*faces
	}
	return int(verts)
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
	if v < 0 {
		return
	}
	if v >= len(r.disp) {
		n := r.levelSize(v)
		if n == 0 {
			return
		}
		r.disp = append(r.disp, make([]geom.Vec3, n-len(r.disp))...)
		r.state = append(r.state, make([]uint8, n-len(r.state))...)
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
	m := r.baseTopology.Clone()
	for i := range m.Verts {
		if i < len(r.state) && r.state[i]&vertexBase != 0 {
			m.Verts[i] = r.disp[i]
		} else {
			m.Verts[i] = r.center
		}
	}
	for j := 0; j < r.levels; j++ {
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
