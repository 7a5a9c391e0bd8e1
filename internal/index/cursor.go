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

// IntoSearcher is an Index that can additionally append its results to a
// caller-owned buffer using caller-owned scratch, eliminating the
// per-query id-slice allocation of Search. The appended region follows
// the same determinism contract as Search (ascending ids, identical set
// and I/O); only the allocation behaviour differs.
type IntoSearcher interface {
	Index
	// SearchInto appends the matching ids to buf in ascending order and
	// returns the extended buffer plus the node I/O spent.
	SearchInto(q Query, buf []int64, cur *Cursor) ([]int64, int64)
}

// Epocher is an index that versions its contents: Epoch returns a
// counter that is bumped around every mutation, seqlock-style — odd
// while a mutation is in flight, even when quiescent, and strictly
// greater after a mutation completes than before it started. Result
// caches key their entries by epoch: an entry stored at an even epoch E
// is valid exactly while Epoch() == E. Sharded implements it; the bump
// protocol is documented on its Insert/Delete methods.
type Epocher interface {
	Epoch() uint64
}

// Compile-time interface checks for the allocation-free search path.
var (
	_ IntoSearcher = (*MotionAware)(nil)
	_ IntoSearcher = (*Sharded)(nil)
	_ Epocher      = (*Sharded)(nil)
)
