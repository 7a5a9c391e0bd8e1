package index

import "repro/internal/rtree"

// Cursor is reusable per-caller search scratch for the allocation-free
// SearchInto path: the R-tree traversal scratch and the hit set that
// orders the raw hits. A zero Cursor is ready to use; buffers and pages
// grow on first use and are retained, so steady-state searches allocate
// nothing. A Cursor must not be shared by concurrent searches — the
// serving layer keeps one per session, exactly like the result buffer it
// helps fill.
type Cursor struct {
	rt   rtree.Cursor
	hits hitSet
}

// IntoSearcher is the contract of a served index — what
// retrieval.Server, the hot cache and the coalescer are written against.
// SearchInto appends Search's results to a caller-owned buffer using
// caller-owned scratch, so a warmed-up serve allocates nothing per query;
// the appended region follows Search's determinism contract (ascending
// ids, identical set and I/O). A served index never changes after its
// build: new data arrives as a new scene.
//
// MotionAware and Sharded implement it. The figures' baselines (Naive,
// ObjectIndex) stay plain Index values; nothing serves them.
type IntoSearcher interface {
	Index
	// SearchInto appends the matching ids to buf in ascending order and
	// returns the extended buffer plus the node I/O spent.
	SearchInto(q Query, buf []int64, cur *Cursor) ([]int64, int64)
}

// Both served indexes satisfy the serving contract.
var (
	_ IntoSearcher = (*MotionAware)(nil)
	_ IntoSearcher = (*Sharded)(nil)
)
