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
// same I/O count Search reports. Traversal order is unspecified (it
// differs from Search's recursive order); the index's hit set puts the
// appended ids in the ascending order its contract promises. The cursor
// provides the traversal scratch and is reset on entry, so it can be
// reused across any number of searches, including against different
// trees.
//
// SearchInto walks the packed snapshot. A tree built by Insert has none
// until its first SearchInto freezes it; searches racing that first one
// may each build one, and all of them are equal.
func (t *Tree) SearchInto(q Rect, cur *Cursor, buf []int64) ([]int64, int64) {
	a := t.frozen.Load()
	if a == nil {
		a = t.freeze()
		t.frozen.Store(a)
	}
	buf, io := a.search(&q, cur, buf)
	t.nodesRead.Add(io)
	t.queries.Add(1)
	return buf, io
}
