package index

import (
	"cmp"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// ObjectIndex is the access method of the non-multiresolution baseline
// system (§VII-E): a plain 2D R*-tree over whole-object bounding boxes.
// A window query returns object ids; the baseline client then retrieves
// every coefficient of each hit object (always the highest resolution).
type ObjectIndex struct {
	store *Store
	tree  *rtree.Tree
	// rank is each object's position in the tree's leaf order, which
	// SearchObjects returns its hits in.
	rank []int32
}

// NewObjectIndex builds the whole-object index.
func NewObjectIndex(store *Store, cfg rtree.Config) *ObjectIndex {
	if cfg.Dims == 0 {
		cfg = rtree.DefaultConfig(2)
	}
	items := make([]rtree.Item, 0, store.NumObjects())
	for i, d := range store.Objects {
		b := d.Bounds().XY()
		items = append(items, rtree.Item{
			Rect: rtree.Box(b.Min.X, b.Max.X, b.Min.Y, b.Max.Y),
			Data: int64(i),
		})
	}
	o := &ObjectIndex{store: store, tree: rtree.BulkLoad(cfg, items), rank: make([]int32, len(items))}
	for pos, obj := range o.tree.Payloads(nil) {
		o.rank[obj] = int32(pos)
	}
	return o
}

// Name identifies the access method in experiment output.
func (o *ObjectIndex) Name() string { return "object(full-res)" }

// Len returns the number of indexed objects.
func (o *ObjectIndex) Len() int { return o.tree.Len() }

// Tree exposes the underlying R*-tree.
func (o *ObjectIndex) Tree() *rtree.Tree { return o.tree }

// SearchObjects returns the ids of objects whose bounding boxes intersect
// the region, in the tree's leaf order, plus node I/O. The baseline
// client fetches them in that order, so it decides which objects its
// LRU buffer keeps. An empty (inverted) region matches nothing —
// rtree.Box would panic on it.
func (o *ObjectIndex) SearchObjects(region geom.Rect2) ([]int32, int64) {
	if region.Empty() {
		return nil, 0
	}
	var cur rtree.Cursor
	hits, io := o.tree.SearchInto(rtree.Box(region.Min.X, region.Max.X, region.Min.Y, region.Max.Y), &cur, nil)
	slices.SortFunc(hits, func(a, b int64) int { return cmp.Compare(o.rank[a], o.rank[b]) })
	ids := make([]int32, len(hits))
	for i, h := range hits {
		ids[i] = int32(h)
	}
	return ids, io
}

// Search adapts the object index to the Index interface: it expands each
// hit object into all of its coefficient ids (ascending, per the Index
// determinism contract), ignoring the value band (the baseline has no
// notion of resolution).
func (o *ObjectIndex) Search(q Query) ([]int64, int64) {
	objs, io := o.SearchObjects(q.Region)
	var ids []int64
	for _, obj := range objs {
		d := o.store.Objects[obj]
		for v := range d.Coeffs {
			ids = append(ids, o.store.ID(obj, int32(v)))
		}
	}
	slices.Sort(ids)
	return ids, io
}
