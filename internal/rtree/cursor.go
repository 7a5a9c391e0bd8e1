package rtree

// Cursor is reusable per-caller search scratch: the queue of node
// indices the packed walk moves through and the per-node survivor list
// of its portable filter. A zero Cursor is ready to use; after the first
// search its buffers are retained, so a steady-state SearchInto performs
// no allocations beyond growing the caller's result buffer. A Cursor
// must not be shared by concurrent searches — one cursor per goroutine
// (or per session), exactly like the result buffer it fills.
type Cursor struct {
	idx []int32
	sel []int32
}

// SearchInto appends the payloads of every item intersecting q to buf
// and returns the extended buffer plus the number of nodes read — the
// per-page I/O cost of the paper's index experiments, one read for the
// root and one for every node whose entry intersects q. Traversal order
// is unspecified; the index's hit set puts the appended ids in the
// ascending order its contract promises. The cursor provides the
// traversal scratch and is reset on entry, so it can be reused across
// any number of searches, including against different trees.
func (t *Tree) SearchInto(q Rect, cur *Cursor, buf []int64) ([]int64, int64) {
	return t.a.search(&q, cur, buf)
}

// Payloads appends every stored payload to buf in leaf order, the leaves
// left to right — the order in which a depth-first walk visits them —
// and returns the extended buffer.
func (t *Tree) Payloads(buf []int64) []int64 {
	return append(buf, t.a.data...)
}
