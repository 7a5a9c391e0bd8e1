package wavelet

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// TestApplyIdempotentShuffled pins down the contract the wire protocol's
// fault-tolerance layer leans on: re-applying any subset of
// coefficients, in any order and any number of times, leaves the
// reconstruction byte-identical. A resuming client re-receives frames
// the server rolled back (and, after a failed resume, whole windows);
// duplicates must be harmless.
func TestApplyIdempotentShuffled(t *testing.T) {
	d := sphereDecomp(t, 3)
	rng := rand.New(rand.NewSource(9))

	clean := NewReconstructor(d.Base, geom.V3(0, 0, 0), d.J)
	clean.ApplyAll(d.Coeffs)

	noisy := NewReconstructor(d.Base, geom.V3(0, 0, 0), d.J)
	noisy.ApplyAll(d.Coeffs)
	// Replay random subsets, shuffled, several times over.
	for round := 0; round < 5; round++ {
		perm := rng.Perm(len(d.Coeffs))
		for _, i := range perm[:len(perm)/2] {
			noisy.Apply(d.Coeffs[i])
		}
	}

	if clean.Count() != noisy.Count() {
		t.Fatalf("duplicate applies changed count: %d != %d", noisy.Count(), clean.Count())
	}
	cm, nm := clean.Mesh(), noisy.Mesh()
	if cm.NumVerts() != nm.NumVerts() {
		t.Fatalf("topology diverged: %d != %d verts", nm.NumVerts(), cm.NumVerts())
	}
	for i := range cm.Verts {
		if cm.Verts[i] != nm.Verts[i] {
			t.Fatalf("vertex %d diverged after duplicate applies: %v != %v",
				i, nm.Verts[i], cm.Verts[i])
		}
	}
}

// TestApplyIdempotentPartial checks the same invariant mid-stream: a
// reconstruction holding only part of the data must also be insensitive
// to duplicate delivery (that is the state a resumed session is in).
func TestApplyIdempotentPartial(t *testing.T) {
	d := sphereDecomp(t, 3)
	half := d.Coeffs[:len(d.Coeffs)/2]

	a := NewReconstructor(d.Base, geom.V3(0, 0, 0), d.J)
	a.ApplyAll(half)

	b := NewReconstructor(d.Base, geom.V3(0, 0, 0), d.J)
	b.ApplyAll(half)
	b.ApplyAll(half)
	b.ApplyAll(half)

	am, bm := a.Mesh(), b.Mesh()
	for i := range am.Verts {
		if am.Verts[i] != bm.Verts[i] {
			t.Fatalf("partial reconstruction vertex %d diverged: %v != %v",
				i, bm.Verts[i], am.Verts[i])
		}
	}
}

// mapReconstruct is the reference the slice-backed Reconstructor is held
// to: the same replay of the subdivision, with the received
// displacements in hash maps keyed by vertex id.
func mapReconstruct(d *Decomposition, center geom.Vec3, cs []Coefficient) (*mesh.Mesh, int) {
	have := make(map[int32]geom.Vec3)
	haveBase := make(map[int32]bool)
	for _, c := range cs {
		have[c.Vertex] = c.Delta
		if c.Level == BaseLevel {
			haveBase[c.Vertex] = true
		}
	}
	m := d.Base.Clone()
	for i := range m.Verts {
		if haveBase[int32(i)] {
			m.Verts[i] = have[int32(i)]
		} else {
			m.Verts[i] = center
		}
	}
	for j := 0; j < d.J; j++ {
		fine, splits := mesh.Subdivide(m)
		for _, sp := range splits {
			if dv, ok := have[sp.Vertex]; ok {
				fine.Verts[sp.Vertex] = fine.Verts[sp.Vertex].Add(dv)
			}
		}
		m = fine
	}
	return m, len(have)
}

// TestReconstructorMatchesMapReference applies random subsets of a
// decomposed building in the arrival orders that stress on-demand
// growth — shuffled, finest level first with no base vertex yet, and the
// highest vertex id first — and compares Count and every vertex of Mesh
// with the map reference.
func TestReconstructorMatchesMapReference(t *testing.T) {
	d, _ := buildingDecomp(t, 4, 3)
	center := d.Bounds().Center()
	rng := rand.New(rand.NewSource(21))
	highestFirst := func(cs []Coefficient) {
		hi := 0
		for i := range cs {
			if cs[i].Vertex > cs[hi].Vertex {
				hi = i
			}
		}
		cs[0], cs[hi] = cs[hi], cs[0]
	}
	orders := map[string]func([]Coefficient){
		"shuffled": func(cs []Coefficient) {
			rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		},
		"finest first": func(cs []Coefficient) { slices.Reverse(cs) },
		"highest first": func(cs []Coefficient) {
			rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
			highestFirst(cs)
		},
	}
	for name, reorder := range orders {
		for _, keep := range []float64{0.05, 0.5, 1} {
			var cs []Coefficient
			for _, c := range d.Coeffs {
				if rng.Float64() < keep {
					cs = append(cs, c)
				}
			}
			if name == "finest first" {
				// Drop the base vertices too: details must land on the
				// collapsed-to-center base exactly as in the reference.
				cs = slices.DeleteFunc(cs, func(c Coefficient) bool { return c.Level == BaseLevel })
			}
			reorder(cs)
			r := NewReconstructor(d.Base, center, d.J)
			r.ApplyAll(cs)
			want, wantCount := mapReconstruct(d, center, cs)
			if r.Count() != wantCount {
				t.Fatalf("%s, keep %.2f: Count %d, reference %d", name, keep, r.Count(), wantCount)
			}
			got := r.Mesh()
			if !slices.Equal(got.Verts, want.Verts) {
				t.Fatalf("%s, keep %.2f: mesh differs from the map reference", name, keep)
			}
		}
	}
}

// TestReconstructorIgnoresVerticesOutsideTopology feeds vertex ids no
// level of the subdivision produces — as a corrupt or hostile stream
// could — and requires them to neither count, move the mesh, nor size
// the vertex slices.
func TestReconstructorIgnoresVerticesOutsideTopology(t *testing.T) {
	d := sphereDecomp(t, 2)
	r := NewReconstructor(d.Base, geom.Vec3{}, d.J)
	r.ApplyAll(d.Coeffs)
	want := r.Mesh()
	final := int32(d.MaxLevelVertex())
	for _, v := range []int32{-1, math.MinInt32, final, final + 1, math.MaxInt32} {
		r.Apply(Coefficient{Vertex: v, Level: 1, Delta: geom.V3(9, 9, 9)})
	}
	if r.Count() != len(d.Coeffs) {
		t.Fatalf("Count %d after out-of-topology applies, want %d", r.Count(), len(d.Coeffs))
	}
	if len(r.disp) != int(final) || len(r.state) != int(final) {
		t.Fatalf("vertex slices hold %d/%d entries, want %d", len(r.disp), len(r.state), final)
	}
	if got := r.Mesh(); !slices.Equal(got.Verts, want.Verts) {
		t.Fatal("out-of-topology applies moved the mesh")
	}
}

// TestReconstructorGrowsByLevel pins the sizing rule: the slices hold
// exactly the vertices of the coarsest level containing the highest id
// seen, so an object known only by its base costs only its base.
func TestReconstructorGrowsByLevel(t *testing.T) {
	d := sphereDecomp(t, 3)
	sizes := []int{d.Base.NumVerts()}
	m := d.Base
	for j := 0; j < d.J; j++ {
		m, _ = mesh.Subdivide(m)
		sizes = append(sizes, m.NumVerts())
	}
	r := NewReconstructor(d.Base, geom.Vec3{}, d.J)
	if len(r.disp) != 0 {
		t.Fatalf("fresh reconstructor holds %d vertices", len(r.disp))
	}
	for _, c := range d.Coeffs { // ascending vertex id
		r.Apply(c)
		level := 0
		for int(c.Vertex) >= sizes[level] {
			level++
		}
		if len(r.disp) != sizes[level] || len(r.state) != sizes[level] {
			t.Fatalf("after vertex %d: %d/%d entries, want level %d's %d", c.Vertex, len(r.disp), len(r.state), level, sizes[level])
		}
	}
}

// TestSchemaLevelTable pins the shared schema's level table: the vertex
// count of every level as subdivision produces it, stopping at the
// deepest level whose vertex ids fit an int32 however many levels are
// asked for, and NewSchema refusing a depth outside it.
func TestSchemaLevelTable(t *testing.T) {
	base := mesh.Octahedron()
	s, err := NewSchema(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := base
	for j := 0; j <= 3; j++ {
		if s.sizes[j] != m.NumVerts() {
			t.Fatalf("level %d: table holds %d vertices, subdivision makes %d", j, s.sizes[j], m.NumVerts())
		}
		m, _ = mesh.Subdivide(m)
	}
	if len(s.sizes) != 4 || s.Levels() != 3 || s.BaseVerts() != 6 {
		t.Fatalf("table %v, %d levels, %d base vertices", s.sizes, s.Levels(), s.BaseVerts())
	}
	if _, err := NewSchema(base, 14); err != nil {
		t.Fatalf("level 14 (%d vertices) refused: %v", 4<<28+2, err)
	}
	for _, levels := range []int{-1, 15, math.MaxInt32} {
		if _, err := NewSchema(base, levels); err == nil {
			t.Fatalf("NewSchema accepted %d levels", levels)
		}
	}
	r := NewReconstructor(base, geom.Vec3{}, math.MaxInt32)
	if n := len(r.schema.sizes); n != 15 {
		t.Fatalf("%d-level reconstructor has a %d-entry table, want 15", math.MaxInt32, n)
	}
	if last := r.schema.sizes[14]; last != 4<<28+2 {
		t.Fatalf("level 14 holds %d vertices", last)
	}
	r.Apply(Coefficient{Vertex: math.MaxInt32, Level: 15})
	if r.Count() != 0 || len(r.disp) != 0 {
		t.Fatalf("a vertex past the table counted %d, sized %d", r.Count(), len(r.disp))
	}
}

// TestReserveGrowsOnce checks that Reserve sizes an object for every id
// up to the one reserved, so applying them grows nothing, and that it
// ignores ids outside the final topology.
func TestReserveGrowsOnce(t *testing.T) {
	d := sphereDecomp(t, 3)
	final := int32(d.MaxLevelVertex())
	r := NewReconstructor(d.Base, geom.Vec3{}, d.J)
	for _, v := range []int32{-1, final, math.MaxInt32} {
		r.Reserve(v)
		if len(r.disp) != 0 {
			t.Fatalf("Reserve(%d) sized the slices to %d", v, len(r.disp))
		}
	}
	r.Reserve(final - 1)
	disp, state := &r.disp[0], &r.state[0]
	r.ApplyAll(d.Coeffs)
	if &r.disp[0] != disp || &r.state[0] != state || len(r.disp) != int(final) {
		t.Fatal("applying reserved ids grew the slices")
	}
	want := NewReconstructor(d.Base, geom.Vec3{}, d.J)
	want.ApplyAll(d.Coeffs)
	if !slices.Equal(r.Mesh().Verts, want.Mesh().Verts) || r.Count() != want.Count() {
		t.Fatal("a reserved reconstructor differs from one grown by level")
	}
}
