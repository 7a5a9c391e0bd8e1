// Package mesh implements the triangular-mesh substrate of the paper:
// indexed triangle meshes approximating 3D object surfaces, the regular
// 1→4 subdivision that underlies the wavelet decomposition (paper §III),
// canonical base meshes, and the analytic target surfaces used to
// synthesize building-like objects.
package mesh

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/geom"
)

// Mesh is an indexed triangle mesh: a vertex array plus faces referencing
// vertices by position. Vertex indices are int32 to keep serialized
// coefficients compact (a level-6 object has ~16K vertices).
type Mesh struct {
	Verts []geom.Vec3
	Faces [][3]int32
}

// Clone returns a deep copy of m.
func (m *Mesh) Clone() *Mesh {
	out := &Mesh{
		Verts: make([]geom.Vec3, len(m.Verts)),
		Faces: make([][3]int32, len(m.Faces)),
	}
	copy(out.Verts, m.Verts)
	copy(out.Faces, m.Faces)
	return out
}

// NumVerts returns the number of vertices.
func (m *Mesh) NumVerts() int { return len(m.Verts) }

// NumFaces returns the number of triangles.
func (m *Mesh) NumFaces() int { return len(m.Faces) }

// Edge is an undirected edge identified by its endpoint indices with
// A < B. Subdivision inserts one midpoint vertex per edge.
type Edge struct {
	A, B int32
}

// MakeEdge builds the canonical (ordered) form of the undirected edge
// {a, b}.
func MakeEdge(a, b int32) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{A: a, B: b}
}

// Edges returns the set of undirected edges of m in deterministic
// (sorted) order.
func (m *Mesh) Edges() []Edge {
	set := make(map[Edge]struct{}, len(m.Faces)*3/2)
	for _, f := range m.Faces {
		set[MakeEdge(f[0], f[1])] = struct{}{}
		set[MakeEdge(f[1], f[2])] = struct{}{}
		set[MakeEdge(f[2], f[0])] = struct{}{}
	}
	out := make([]Edge, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// NumEdges returns the number of undirected edges. It counts them from
// one sorted key per face side, without building the Edges set.
func (m *Mesh) NumEdges() int {
	keys := make([]uint64, 0, 3*len(m.Faces))
	for _, f := range m.Faces {
		for i := range f {
			e := MakeEdge(f[i], f[(i+1)%3])
			keys = append(keys, uint64(uint32(e.A))<<32|uint64(uint32(e.B)))
		}
	}
	slices.Sort(keys)
	return len(slices.Compact(keys))
}

// EulerCharacteristic returns V − E + F. Closed orientable surfaces of
// genus 0 (all our objects) have characteristic 2, and regular subdivision
// preserves it — a cheap global sanity check on topology code.
func (m *Mesh) EulerCharacteristic() int {
	return m.NumVerts() - m.NumEdges() + m.NumFaces()
}

// VertexNeighbors returns, for each vertex, the sorted list of vertices it
// shares an edge with. The naive index of §VI stores these neighbor lists
// so a window query can pull in the vertices connected to in-window ones.
func (m *Mesh) VertexNeighbors() [][]int32 {
	sets := make([]map[int32]struct{}, len(m.Verts))
	add := func(a, b int32) {
		if sets[a] == nil {
			sets[a] = make(map[int32]struct{}, 6)
		}
		sets[a][b] = struct{}{}
	}
	for _, f := range m.Faces {
		add(f[0], f[1])
		add(f[1], f[0])
		add(f[1], f[2])
		add(f[2], f[1])
		add(f[2], f[0])
		add(f[0], f[2])
	}
	out := make([][]int32, len(m.Verts))
	for i, s := range sets {
		lst := make([]int32, 0, len(s))
		for v := range s {
			lst = append(lst, v)
		}
		sort.Slice(lst, func(a, b int) bool { return lst[a] < lst[b] })
		out[i] = lst
	}
	return out
}

// FacesAround returns, for each vertex, the indices of faces incident to
// it. The support region of a wavelet coefficient is the union of the
// faces around its midpoint vertex (paper §VI-A).
func (m *Mesh) FacesAround() [][]int32 {
	out := make([][]int32, len(m.Verts))
	for fi, f := range m.Faces {
		for _, v := range f {
			out[v] = append(out[v], int32(fi))
		}
	}
	return out
}

// Bounds returns the axis-aligned bounding box of all vertices. An empty
// mesh yields an empty box.
func (m *Mesh) Bounds() geom.Rect3 {
	if len(m.Verts) == 0 {
		return geom.Rect3{Min: geom.V3(1, 1, 1), Max: geom.V3(0, 0, 0)}
	}
	b := geom.Rect3At(m.Verts[0])
	for _, v := range m.Verts[1:] {
		b = b.AddPoint(v)
	}
	return b
}

// Translate shifts every vertex by d in place and returns m.
func (m *Mesh) Translate(d geom.Vec3) *Mesh {
	for i := range m.Verts {
		m.Verts[i] = m.Verts[i].Add(d)
	}
	return m
}

// Scale multiplies every vertex by s (about the origin) in place and
// returns m.
func (m *Mesh) Scale(s float64) *Mesh {
	for i := range m.Verts {
		m.Verts[i] = m.Verts[i].Scale(s)
	}
	return m
}

// Validate checks structural invariants: face indices in range and no
// degenerate faces (repeated vertex indices). It returns the first problem
// found.
func (m *Mesh) Validate() error {
	n := int32(len(m.Verts))
	for fi, f := range m.Faces {
		for _, v := range f {
			if v < 0 || v >= n {
				return fmt.Errorf("mesh: face %d references vertex %d of %d", fi, v, n)
			}
		}
		if f[0] == f[1] || f[1] == f[2] || f[2] == f[0] {
			return fmt.Errorf("mesh: face %d is degenerate: %v", fi, f)
		}
	}
	return nil
}

// SurfaceArea returns the total area of all triangles.
func (m *Mesh) SurfaceArea() float64 {
	var area float64
	for _, f := range m.Faces {
		a, b, c := m.Verts[f[0]], m.Verts[f[1]], m.Verts[f[2]]
		area += b.Sub(a).Cross(c.Sub(a)).Len() / 2
	}
	return area
}
