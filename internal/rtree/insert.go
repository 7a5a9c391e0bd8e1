package rtree

import "sort"

// InsertLoad builds a tree by inserting the items one at a time, in
// order, with cfg.Variant's algorithm: R* subtree choice, forced
// reinsertion and topological split, or Guttman's quadratic split. The
// insertion runs on pointer nodes, which are then written into the same
// packed arena BulkLoad writes, so the tree it returns is as read-only
// as a bulk-loaded one. The served indexes bulk-load; insertion builds
// the trees the index ablation (abl-index) compares STR packing with.
func InsertLoad(cfg Config, items []Item) *Tree {
	t := &pointerTree{cfg: cfg.normalized(), root: &node{leaf: true}, height: 1, nodes: 1}
	for _, it := range items {
		t.insert(it.Rect, it.Data)
	}
	return t.freeze()
}

// pointerTree is a tree under construction by insertion: nodes that
// point to their children, which splits and reinsertions rearrange.
type pointerTree struct {
	cfg    Config
	root   *node
	height int // leaf level = 1, root level = height
	size   int
	nodes  int // node (page) count, maintained by every structural change
	// path is the root-to-leaf scratch choosePath fills, one buffer for
	// every insertion.
	path []*node
}

type entry struct {
	rect  Rect
	child *node // nil at leaf level
	data  int64 // payload at leaf level
}

type node struct {
	leaf    bool
	entries []entry
}

func (n *node) mbr(dims int) Rect {
	r := n.entries[0].rect
	for i := 1; i < len(n.entries); i++ {
		r.extend(&n.entries[i].rect, dims)
	}
	return r
}

// freeze writes the pointer nodes into a new arena, breadth-first, and
// returns the tree that is that arena.
func (t *pointerTree) freeze() *Tree {
	w := newArenaWriter(t.cfg, t.nodes, t.size)
	queue := make([]*node, 1, t.nodes)
	queue[0] = t.root
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		w.node(n.leaf, len(n.entries))
		for j := range n.entries {
			e := &n.entries[j]
			w.entry(j, &e.rect)
			if n.leaf {
				w.payload(e.data)
			} else {
				queue = append(queue, e.child)
			}
		}
	}
	return &Tree{cfg: t.cfg, height: t.height, size: t.size, nodes: t.nodes, a: w.finish()}
}

type pendingInsert struct {
	e     entry
	level int
}

// insert runs one logical insertion of an item, draining the forced-
// reinsertion work queue. Forced reinsertion fires at most once per
// level per logical insertion (the R* OverflowTreatment rule).
func (t *pointerTree) insert(r Rect, data int64) {
	reinserted := make(map[int]bool)
	queue := []pendingInsert{{e: entry{rect: r, data: data}, level: 1}}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		queue = append(queue, t.place(p.e, p.level, reinserted)...)
	}
	t.size++
}

// place inserts e at the given level (1 = leaf), resolving overflows along
// the insertion path bottom-up. Splits keep node identity (the split node
// retains one group; the returned sibling holds the other), so the path
// stays valid. Entries evicted by forced reinsertion are returned for the
// caller to re-place.
func (t *pointerTree) place(e entry, level int, reinserted map[int]bool) []pendingInsert {
	dims := t.cfg.Dims
	path := t.choosePath(&e.rect, level)
	path[len(path)-1].entries = append(path[len(path)-1].entries, e)

	var evicted []pendingInsert
	var newSibling *node
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		nodeLevel := t.height - i
		if i < len(path)-1 {
			// Refresh the rect of the child we descended into and adopt the
			// sibling produced by the child's split, if any.
			child := path[i+1]
			for j := range n.entries {
				if n.entries[j].child == child {
					n.entries[j].rect = child.mbr(dims)
					break
				}
			}
			if newSibling != nil {
				n.entries = append(n.entries, entry{rect: newSibling.mbr(dims), child: newSibling})
				newSibling = nil
			}
		}
		if len(n.entries) <= t.cfg.MaxEntries {
			continue
		}
		if t.cfg.Variant == RStar && i > 0 && !reinserted[nodeLevel] {
			reinserted[nodeLevel] = true
			for _, ev := range t.evictFarthest(n) {
				evicted = append(evicted, pendingInsert{e: ev, level: nodeLevel})
			}
			continue
		}
		if t.cfg.Variant == RStar {
			newSibling = t.splitRStar(n)
		} else {
			newSibling = t.splitQuadratic(n)
		}
		t.nodes++
	}
	if newSibling != nil {
		// The root itself split: grow the tree.
		old := t.root
		t.root = &node{
			leaf: false,
			entries: []entry{
				{rect: old.mbr(dims), child: old},
				{rect: newSibling.mbr(dims), child: newSibling},
			},
		}
		t.height++
		t.nodes++
	}
	return evicted
}

// choosePath descends from the root to the target level, collecting the
// nodes visited. Subtree choice follows R*: at the level just above the
// target minimize overlap enlargement; higher up minimize area
// enlargement. The Guttman variant always minimizes area enlargement.
func (t *pointerTree) choosePath(r *Rect, level int) []*node {
	if cap(t.path) < t.height {
		t.path = make([]*node, 0, t.height)
	}
	n := t.root
	path := append(t.path[:0], n)
	for depth := t.height; depth > level; depth-- {
		var best int
		if depth == level+1 && t.cfg.Variant == RStar {
			best = t.chooseLeastOverlap(n, r)
		} else {
			best = t.chooseLeastEnlargement(n, r)
		}
		n = n.entries[best].child
		path = append(path, n)
	}
	return path
}

func (t *pointerTree) chooseLeastEnlargement(n *node, r *Rect) int {
	dims := t.cfg.Dims
	best, bestEnl, bestArea := 0, 0.0, 0.0
	for i := range n.entries {
		enl := n.entries[i].rect.enlargement(r, dims)
		area := n.entries[i].rect.area(dims)
		if i == 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

func (t *pointerTree) chooseLeastOverlap(n *node, r *Rect) int {
	dims := t.cfg.Dims
	best := 0
	bestOverlapInc, bestEnl, bestArea := 0.0, 0.0, 0.0
	for i := range n.entries {
		u := n.entries[i].rect.union(r, dims)
		var inc float64
		for j := range n.entries {
			if j == i {
				continue
			}
			inc += u.overlap(&n.entries[j].rect, dims) -
				n.entries[i].rect.overlap(&n.entries[j].rect, dims)
		}
		enl := n.entries[i].rect.enlargement(r, dims)
		area := n.entries[i].rect.area(dims)
		if i == 0 || inc < bestOverlapInc ||
			(inc == bestOverlapInc && (enl < bestEnl ||
				(enl == bestEnl && area < bestArea))) {
			best, bestOverlapInc, bestEnl, bestArea = i, inc, enl, area
		}
	}
	return best
}

// evictFarthest removes the ~30% of n's entries whose centers lie farthest
// from the node's centroid and returns them for reinsertion, ordered
// closest-first (the R* paper found close reinsert superior).
func (t *pointerTree) evictFarthest(n *node) []entry {
	dims := t.cfg.Dims
	p := t.cfg.MaxEntries * 3 / 10
	if p < 1 {
		p = 1
	}
	mbr := n.mbr(dims)
	idx := make([]int, len(n.entries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return n.entries[idx[a]].rect.centerDist(&mbr, dims) >
			n.entries[idx[b]].rect.centerDist(&mbr, dims)
	})
	removeSet := make(map[int]bool, p)
	removed := make([]entry, p)
	for k := 0; k < p; k++ {
		removeSet[idx[k]] = true
		// Farthest-first in idx; store reversed so callers pop close-first
		// off the end of the slice.
		removed[p-1-k] = n.entries[idx[k]]
	}
	kept := make([]entry, 0, len(n.entries)-p)
	for i := range n.entries {
		if !removeSet[i] {
			kept = append(kept, n.entries[i])
		}
	}
	n.entries = kept
	return removed
}
