package rtree

// Search visits every item whose rectangle intersects q, invoking fn for
// each. Returning false from fn stops the traversal early. Search adds the
// number of nodes it touches to the tree's Stats — the per-page I/O cost
// metric of the paper's index experiments.
func (t *Tree) Search(q Rect, fn func(r Rect, data int64) bool) {
	io, _ := t.search(t.root, &q, fn)
	t.nodesRead.Add(io)
	t.queries.Add(1)
}

// SearchCounted is Search but additionally returns the number of nodes
// read by this query alone.
func (t *Tree) SearchCounted(q Rect, fn func(r Rect, data int64) bool) int64 {
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

// Collect returns the payloads of all items intersecting q. The output
// is presized from the previous Collect's result count — window queries
// arrive in continuous streams whose consecutive frames hit similar
// numbers of items, so the last result is a cheap, usually tight bound.
func (t *Tree) Collect(q Rect) []int64 {
	out := make([]int64, 0, t.lastHits.Load())
	t.Search(q, func(_ Rect, data int64) bool {
		out = append(out, data)
		return true
	})
	t.lastHits.Store(int64(len(out)))
	return out
}

// Count returns the number of items intersecting q.
func (t *Tree) Count(q Rect) int {
	n := 0
	t.Search(q, func(Rect, int64) bool {
		n++
		return true
	})
	return n
}

// Scan visits every stored item without spatial filtering (and without
// touching the I/O counters); used for validation and tests.
func (t *Tree) Scan(fn func(r Rect, data int64) bool) {
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
