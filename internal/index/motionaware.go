package index

import (
	"sync/atomic"

	"repro/internal/rtree"
	"repro/internal/wavelet"
)

// MotionAware is the paper's proposed access method (§VI-B): each wavelet
// coefficient is indexed by the MBB of its support region in the spatial
// dimensions and by its value in the w dimension. A single window query
// Q(R, wmax, wmin) then returns exactly the coefficients whose support
// intersects R with value in band — the minimal sufficient set — with no
// neighbor-expansion re-query.
type MotionAware struct {
	src    CoefficientSource
	layout Layout
	tree   *rtree.Tree
	// lastHits remembers the previous search's result count — the
	// presizing heuristic for the next one. Consecutive frames of a
	// continuous query stream hit similar numbers of coefficients, so the
	// last result is a cheap, usually tight capacity bound.
	lastHits atomic.Int64
}

// NewMotionAware builds the index over every coefficient in the source
// (global ids are dense, so the source is enumerated directly). A
// zero-valued cfg.Dims is filled in from the layout.
func NewMotionAware(src CoefficientSource, layout Layout, cfg rtree.Config) *MotionAware {
	if cfg.Dims == 0 {
		cfg = rtree.DefaultConfig(layout.Dims())
	}
	items := make([]rtree.Item, 0, src.NumCoeffs())
	src.scan(func(id int64, c *wavelet.Coefficient) {
		items = append(items, rtree.Item{Rect: layout.supportRect(c), Data: id})
	})
	// The coefficient set is static, so STR bulk loading builds the tree
	// in seconds where repeated R* insertion takes minutes at the paper's
	// dataset sizes, with equal-or-better query I/O.
	return &MotionAware{src: src, layout: layout, tree: rtree.BulkLoad(cfg, items)}
}

// Name identifies the access method in experiment output.
func (m *MotionAware) Name() string { return "motion-aware(" + m.layout.String() + ")" }

// Len returns the number of indexed coefficients.
func (m *MotionAware) Len() int { return m.tree.Len() }

// Tree exposes the underlying R*-tree (for stats and validation).
func (m *MotionAware) Tree() *rtree.Tree { return m.tree }

// Search returns the global ids of all coefficients whose support region
// intersects the query region with value in [WMin, WMax] — ascending, per
// the Index determinism contract — plus the node I/O spent. It is
// SearchInto on a fresh cursor and a result presized from the previous
// search, so there is one descent and one ordering. Safe for any number
// of concurrent callers.
func (m *MotionAware) Search(q Query) ([]int64, int64) {
	var cur Cursor
	ids, io := m.SearchInto(q, make([]int64, 0, m.lastHits.Load()), &cur)
	if len(ids) == 0 {
		return nil, io
	}
	return ids, io
}

// SearchInto is the allocation-free Search: matching ids are appended to
// buf (ascending, same set and I/O as Search) using the cursor's
// traversal stack and hit set, so a warmed-up caller performs no
// allocations per query. Safe for concurrent callers with distinct
// cursors and buffers.
func (m *MotionAware) SearchInto(q Query, buf []int64, cur *Cursor) ([]int64, int64) {
	qr, ok := m.layout.queryRect(q)
	if !ok {
		return buf, 0
	}
	start := len(buf)
	buf, io := m.tree.SearchInto(qr, &cur.rt, buf)
	buf = buf[:start+len(cur.hits.order(buf[start:]))]
	m.lastHits.Store(int64(len(buf) - start))
	return buf, io
}
