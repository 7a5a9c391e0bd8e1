package rtree

import "math"

// arena is the packed read representation of a quiescent tree: every
// node copied, in breadth-first order, into three flat arrays. A node's
// children are consecutive in that order, so an internal node stores
// only the index of its first child and the child index is implicit —
// the arena holds no pointers. It is immutable once published; a
// mutation of the tree drops it (see Tree.thaw) and a later search
// rebuilds it from the pointer nodes.
type arena struct {
	dims int
	// all is 0, 1, …, cap−1, one index per entry slot of a node (cap is
	// the tree's MaxEntries): the list a node's filter starts from.
	all []int32
	// bounds holds one fixed block of 2·dims·cap float64 per node,
	// structure-of-arrays over the tree's live dimensions only: the cap
	// lower bounds of dimension 0, then of dimension 1, …, then the
	// upper bounds likewise. Testing a node's ≤ cap entries against a
	// query reads 2·dims short contiguous runs.
	bounds []float64
	nodes  []arenaNode
	// leaf0 is the index of the first leaf. Every leaf sits at the same
	// depth, so breadth-first order puts all of them after the last
	// internal node.
	leaf0 int32
	data  []int64 // leaf payloads, in leaf then entry order
}

// arenaNode is a node's header: its entry count and where its entries
// point — the first child's node index, or for a leaf the index of its
// first payload in data.
type arenaNode struct {
	first int32
	n     int32
}

// freeze copies the pointer tree into a new arena. The caller guarantees
// the tree is quiescent (no mutation in flight), which bounds every
// node at MaxEntries. A tree beyond int32 indexing is left thawed.
func (t *Tree) freeze() *arena {
	if t.size > math.MaxInt32 {
		return nil
	}
	dims, slots := t.cfg.Dims, t.cfg.MaxEntries
	stride := 2 * dims * slots
	a := &arena{
		dims:   dims,
		all:    make([]int32, slots),
		bounds: make([]float64, t.nodes*stride),
		nodes:  make([]arenaNode, t.nodes),
		leaf0:  -1,
		data:   make([]int64, 0, t.size),
	}
	for i := range a.all {
		a.all[i] = int32(i)
	}
	queue := make([]*node, 1, t.nodes)
	queue[0] = t.root
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		blk := a.bounds[i*stride : (i+1)*stride]
		for j := range n.entries {
			r := &n.entries[j].rect
			for d := 0; d < dims; d++ {
				blk[d*slots+j] = r.Lo[d]
				blk[(dims+d)*slots+j] = r.Hi[d]
			}
		}
		if n.leaf {
			if a.leaf0 < 0 {
				a.leaf0 = int32(i)
			}
			a.nodes[i] = arenaNode{first: int32(len(a.data)), n: int32(len(n.entries))}
			for j := range n.entries {
				a.data = append(a.data, n.entries[j].data)
			}
			continue
		}
		a.nodes[i] = arenaNode{first: int32(len(queue)), n: int32(len(n.entries))}
		for j := range n.entries {
			queue = append(queue, n.entries[j].child)
		}
	}
	return a
}

// search is SearchInto over the arena: the same nodes visited and the
// same payloads appended as the pointer walk, in a different order.
// The traversal is level by level through a queue kept in the cursor;
// because the arena is laid out in that same breadth-first order, node
// indices only ever increase and the walk moves forward through memory.
// Each node's entries are filtered one dimension at a time into the
// cursor's survivor list — the comparisons are the ones Rect.intersects
// makes, so the result cannot differ — and only the survivors are
// queued or emitted. The queue's final length is the node-read count.
func (a *arena) search(q *Rect, cur *Cursor, buf []int64) ([]int64, int64) {
	dims, slots := a.dims, len(a.all)
	stride := 2 * dims * slots
	if cap(cur.sel) < slots {
		cur.sel = make([]int32, slots)
	}
	sel := cur.sel[:slots]
	queue := append(cur.idx[:0], 0)
	for h := 0; h < len(queue); h++ {
		ni := queue[h]
		nd := a.nodes[ni]
		blk := a.bounds[int(ni)*stride : int(ni)*stride+stride]
		n := int(nd.n)
		live := a.all[:n]
		for d := 0; d < dims && len(live) > 0; d++ {
			lo, hi := blk[d*slots:][:n], blk[(dims+d)*slots:][:n]
			ql, qh := q.Lo[d], q.Hi[d]
			k := 0
			for _, i := range live {
				sel[k] = i
				c := 1
				if ql > hi[i] {
					c = 0
				}
				if lo[i] > qh {
					c = 0
				}
				k += c
			}
			live = sel[:k]
		}
		if ni >= a.leaf0 {
			for _, i := range live {
				buf = append(buf, a.data[nd.first+i])
			}
			continue
		}
		for _, i := range live {
			queue = append(queue, nd.first+i)
		}
	}
	cur.idx = queue
	return buf, int64(len(queue))
}
