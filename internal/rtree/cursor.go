package rtree

// Cursor is reusable per-caller search scratch: the explicit node list
// an iterative traversal uses instead of the call stack — a queue of
// node indices over the packed snapshot, a stack of node pointers over
// a thawed tree — and the per-node survivor list of the portable
// packed walk. A
// zero Cursor is ready to use; after the first search its buffers are
// retained, so a steady-state SearchInto performs no allocations beyond
// growing the caller's result buffer. A Cursor must not be shared by
// concurrent searches — one cursor per goroutine (or per session),
// exactly like the result buffer it fills.
type Cursor struct {
	idx   []int32
	sel   []int32
	stack []*node
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
// SearchInto walks the packed snapshot when the tree has one and the
// pointer nodes otherwise. Rebuilding the snapshot reads every node
// once, so a thawed tree rents — walks pointers — until the searches
// since the last mutation have read as many nodes as the tree holds,
// and the search that crosses that line buys: it freezes the tree and
// publishes the snapshot for everyone after it. A tree under steady
// mutation therefore never pays for snapshots it would not use, and a
// tree left alone pays for one at most twice over. The tree is
// quiescent whenever a search runs (the Tree contract), which is all
// the rebuild needs.
func (t *Tree) SearchInto(q Rect, cur *Cursor, buf []int64) ([]int64, int64) {
	var io int64
	if a := t.frozen.Load(); a != nil {
		buf, io = a.search(&q, cur, buf)
	} else {
		buf, io = t.searchNodes(&q, cur, buf)
		total, reads := int64(t.nodes), t.thawedReads.Add(io)
		if reads >= total && reads-io < total {
			t.frozen.Store(t.freeze())
		}
	}
	t.nodesRead.Add(io)
	t.queries.Add(1)
	return buf, io
}

// searchNodes is SearchInto over the pointer nodes of a thawed tree.
func (t *Tree) searchNodes(q *Rect, cur *Cursor, buf []int64) ([]int64, int64) {
	dims := t.cfg.Dims
	cur.stack = append(cur.stack[:0], t.root)
	var io int64
	for len(cur.stack) > 0 {
		n := cur.stack[len(cur.stack)-1]
		cur.stack = cur.stack[:len(cur.stack)-1]
		io++
		if n.leaf {
			for i := range n.entries {
				if q.intersects(&n.entries[i].rect, dims) {
					buf = append(buf, n.entries[i].data)
				}
			}
			continue
		}
		for i := range n.entries {
			if q.intersects(&n.entries[i].rect, dims) {
				cur.stack = append(cur.stack, n.entries[i].child)
			}
		}
	}
	return buf, io
}
