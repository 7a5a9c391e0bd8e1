package index

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Naive is the straightforward access method of §VI that the motion-aware
// index is compared against: coefficients are indexed as points
// (position, value). Points inside the window are not sufficient for
// rendering — vertices connected to them also contribute — so the method
// (i) queries the window, (ii) computes the bounding region of all
// neighbors of the retrieved vertices, and (iii) re-executes the query
// over the extended region, filtering the second pass down to actual
// neighbors. The double traversal over an enlarged region is what costs
// it the extra I/O reported in Figures 12–13.
type Naive struct {
	store  *Store
	layout Layout
	tree   *rtree.Tree
}

// NewNaive builds the naive point index. It materializes the per-object
// neighbor lists (the "additional information" §VI says this method must
// store), so the store's final meshes must still be present. The concrete
// Store is required here (not a CoefficientSource): only the slab can run
// the EnsureNeighbors build step.
func NewNaive(store *Store, layout Layout, cfg rtree.Config) *Naive {
	if cfg.Dims == 0 {
		cfg = rtree.DefaultConfig(layout.Dims())
	}
	store.EnsureNeighbors()
	items := make([]rtree.Item, 0, store.NumCoeffs())
	for _, d := range store.Objects {
		for i := range d.Coeffs {
			c := &d.Coeffs[i]
			items = append(items, rtree.Item{
				Rect: layout.pointRect(c),
				Data: store.ID(c.Object, c.Vertex),
			})
		}
	}
	return &Naive{store: store, layout: layout, tree: rtree.BulkLoad(cfg, items)}
}

// Name identifies the access method in experiment output.
func (n *Naive) Name() string { return "naive(" + n.layout.String() + ")" }

// Len returns the number of indexed coefficients.
func (n *Naive) Len() int { return n.tree.Len() }

// Tree exposes the underlying R*-tree.
func (n *Naive) Tree() *rtree.Tree { return n.tree }

// Search runs the two-phase naive retrieval and returns the union of
// in-window coefficients and their connected neighbors (within the value
// band) in ascending id order, plus the total node I/O of both
// traversals.
func (n *Naive) Search(q Query) ([]int64, int64) {
	qr, qok := n.layout.queryRect(q)
	if !qok {
		return nil, 0
	}
	var cur rtree.Cursor
	phase1, io := n.tree.SearchInto(qr, &cur, nil)
	if len(phase1) == 0 {
		return nil, io
	}

	// Determine the neighbor set and the extended bounding region that
	// encloses all neighboring vertices.
	wanted := make(map[int64]bool)
	ext := q.Region
	zMin, zMax := q.ZMin, q.ZMax
	for _, id := range phase1 {
		// The naive index runs over the in-memory Store only (it needs
		// retained final meshes), so Coeff never fails here.
		c, _ := n.store.Coeff(id)
		for _, nb := range n.store.Neighbors(c.Object, c.Vertex) {
			nid := n.store.ID(c.Object, nb)
			wanted[nid] = true
			nc, _ := n.store.Coeff(nid)
			p := nc.Pos
			ext = ext.Union(geom.Rect2{Min: p.XY(), Max: p.XY()})
			if p.Z < zMin {
				zMin = p.Z
			}
			if p.Z > zMax {
				zMax = p.Z
			}
		}
	}

	// Re-execute over the extended region; keep phase-1 results plus any
	// candidate that really is a neighbor of an in-window vertex.
	extQuery := Query{Region: ext, ZMin: zMin, ZMax: zMax, WMin: q.WMin, WMax: q.WMax}
	inWindow := make(map[int64]bool, len(phase1))
	for _, id := range phase1 {
		inWindow[id] = true
	}
	ids := append([]int64(nil), phase1...)
	// The extended region grows phase 1's valid window, so it can only be
	// valid too; searching it unconditionally would repeat the inverted-
	// rectangle hazard queryRect guards against.
	extRect, ok := n.layout.queryRect(extQuery)
	if !ok {
		slices.Sort(ids)
		return ids, io
	}
	phase2, io2 := n.tree.SearchInto(extRect, &cur, nil)
	io += io2
	for _, data := range phase2 {
		if wanted[data] && !inWindow[data] {
			ids = append(ids, data)
			inWindow[data] = true
		}
	}
	slices.Sort(ids)
	return ids, io
}
