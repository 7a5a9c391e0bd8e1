package rtree

// Search visits every item whose rectangle intersects q, invoking fn for
// each. Returning false from fn stops the traversal early. Search adds the
// number of nodes it touches to the tree's Stats — the per-page I/O cost
// metric of the paper's index experiments. It walks the pointer nodes of
// a tree built by Insert and panics on a bulk-loaded tree, which has
// none: SearchInto serves both.
func (t *Tree) Search(q Rect, fn func(r Rect, data int64) bool) {
	t.SearchCounted(q, fn)
}

// SearchCounted is Search but additionally returns the number of nodes
// read by this query alone.
func (t *Tree) SearchCounted(q Rect, fn func(r Rect, data int64) bool) int64 {
	t.needPointers("Search")
	io, _ := t.search(t.root, &q, fn)
	t.nodesRead.Add(io)
	t.queries.Add(1)
	return io
}

func (t *Tree) search(n *node, q *Rect, fn func(r Rect, data int64) bool) (io int64, stopped bool) {
	dims := t.cfg.Dims
	io = 1 // reading this node costs one page access
	if n.leaf {
		for i := range n.entries {
			if q.intersects(&n.entries[i].rect, dims) {
				if !fn(n.entries[i].rect, n.entries[i].data) {
					return io, true
				}
			}
		}
		return io, false
	}
	for i := range n.entries {
		if q.intersects(&n.entries[i].rect, dims) {
			cio, cstop := t.search(n.entries[i].child, q, fn)
			io += cio
			if cstop {
				return io, true
			}
		}
	}
	return io, false
}

// Collect returns the payloads of all items intersecting q, through
// SearchInto on a fresh cursor. The output is presized from the previous
// Collect's result count — window queries arrive in continuous streams
// whose consecutive frames hit similar numbers of items, so the last
// result is a cheap, usually tight bound.
func (t *Tree) Collect(q Rect) []int64 {
	var cur Cursor
	out, _ := t.SearchInto(q, &cur, make([]int64, 0, t.lastHits.Load()))
	t.lastHits.Store(int64(len(out)))
	return out
}

// Count returns the number of items intersecting q.
func (t *Tree) Count(q Rect) int { return len(t.Collect(q)) }

// Scan visits every stored item without spatial filtering (and without
// touching the I/O counters); used for validation and tests. Like
// Search, it needs a tree built by Insert.
func (t *Tree) Scan(fn func(r Rect, data int64) bool) {
	t.needPointers("Scan")
	t.scan(t.root, fn)
}

func (t *Tree) scan(n *node, fn func(r Rect, data int64) bool) bool {
	if n.leaf {
		for i := range n.entries {
			if !fn(n.entries[i].rect, n.entries[i].data) {
				return false
			}
		}
		return true
	}
	for i := range n.entries {
		if !t.scan(n.entries[i].child, fn) {
			return false
		}
	}
	return true
}

// NumNodes returns the total number of nodes (pages) in the tree.
func (t *Tree) NumNodes() int { return t.nodes }
