package rtree

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Variant selects the insertion/split algorithm.
type Variant int

const (
	// RStar is the R*-tree of Beckmann et al.: topological splits chosen by
	// margin/overlap and forced reinsertion on overflow. The paper's
	// motion-aware index uses an R*-tree with 4 KB pages and fanout 20.
	RStar Variant = iota
	// Quadratic is Guttman's original R-tree with quadratic split and no
	// reinsertion, kept as an ablation baseline.
	Quadratic
)

func (v Variant) String() string {
	switch v {
	case RStar:
		return "R*-tree"
	case Quadratic:
		return "R-tree(quadratic)"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config parameterizes a Tree.
type Config struct {
	Dims       int     // dimensionality (1..MaxDims)
	MaxEntries int     // node capacity; paper: 20
	MinEntries int     // minimum fill; 0 → 40% of MaxEntries
	Variant    Variant // split strategy
	PageBytes  int     // reported page size; paper: 4096. Informational.
}

// DefaultConfig mirrors the paper's experimental setup (§VII-D): page size
// 4 KB, node capacity 20, R*-tree.
func DefaultConfig(dims int) Config {
	return Config{Dims: dims, MaxEntries: 20, Variant: RStar, PageBytes: 4096}
}

// Stats is a snapshot of access counts. NodesRead counts every node
// touched by queries since the last reset — the I/O cost metric of
// Figures 12–13.
type Stats struct {
	NodesRead int64
	Queries   int64
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

// Tree is an in-memory R-tree over int64 payloads, built by BulkLoad
// (read-only) or grown by Insert. Insert is not safe concurrently with
// anything; concurrent queries over a tree nobody inserts into are safe
// (the access counters are atomic).
type Tree struct {
	cfg Config
	// root is the pointer tree of a tree built by Insert; nil for a
	// bulk-loaded tree, whose only form is its arena.
	root   *node
	height int // leaf level = 1, root level = height
	size   int
	nodes  int // node (page) count, maintained by every structural change
	// frozen is the packed read snapshot SearchInto walks: BulkLoad
	// writes it, Insert drops it, and the next SearchInto rebuilds it
	// from root.
	frozen atomic.Pointer[arena]
	// Access counters, updated atomically: queries may run concurrently
	// (one retrieval session per network client) over an otherwise
	// read-only tree.
	nodesRead atomic.Int64
	queries   atomic.Int64
	// lastHits remembers the previous Collect result size, the presizing
	// heuristic for the next one (atomic: Collect is a read operation and
	// may run concurrently with other reads).
	lastHits atomic.Int64
	// path is the tree-owned root-to-leaf scratch choosePath fills.
	// Insert is single-threaded by contract, so one buffer serves every
	// insertion without a per-call allocation.
	path []*node
}

// New creates an empty tree. Invalid configuration panics: index
// parameters are experiment constants, not runtime input.
func New(cfg Config) *Tree {
	if cfg.Dims < 1 || cfg.Dims > MaxDims {
		panic(fmt.Sprintf("rtree: dims %d out of range", cfg.Dims))
	}
	if cfg.MaxEntries < 4 || cfg.MaxEntries > 64 {
		panic("rtree: MaxEntries must be 4–64") // the walk's masks hold 64 entries
	}
	if cfg.MinEntries == 0 {
		cfg.MinEntries = cfg.MaxEntries * 2 / 5 // 40%, the R* recommendation
	}
	if cfg.MinEntries < 1 || cfg.MinEntries > cfg.MaxEntries/2 {
		panic(fmt.Sprintf("rtree: MinEntries %d invalid for MaxEntries %d",
			cfg.MinEntries, cfg.MaxEntries))
	}
	if cfg.PageBytes == 0 {
		cfg.PageBytes = 4096
	}
	return &Tree{
		cfg:    cfg,
		root:   &node{leaf: true},
		height: 1,
		nodes:  1,
	}
}

// needPointers panics if t, being bulk-loaded, has no pointer nodes for
// op to work on.
func (t *Tree) needPointers(op string) {
	if t.root == nil {
		panic("rtree: " + op + " on a bulk-loaded tree: it is read-only and holds only the packed arena that SearchInto walks")
	}
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 for a leaf-only tree).
func (t *Tree) Height() int { return t.height }

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Stats returns a snapshot of the accumulated access counters.
func (t *Tree) Stats() Stats {
	return Stats{NodesRead: t.nodesRead.Load(), Queries: t.queries.Load()}
}

type pendingInsert struct {
	e     entry
	level int
}

// Insert adds an item and drops the packed snapshot, which the next
// SearchInto rebuilds. A bulk-loaded tree is read-only: Insert panics.
func (t *Tree) Insert(r Rect, data int64) {
	t.needPointers("Insert")
	t.frozen.Store(nil)
	t.insertWithReinsertion(entry{rect: r, data: data}, 1)
	t.size++
}

// insertWithReinsertion runs one logical insertion, draining the forced-
// reinsertion work queue. Forced reinsertion fires at most once per level
// per logical insertion (the R* OverflowTreatment rule).
func (t *Tree) insertWithReinsertion(e entry, level int) {
	reinserted := make(map[int]bool)
	queue := []pendingInsert{{e: e, level: level}}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		queue = append(queue, t.place(p.e, p.level, reinserted)...)
	}
}

// place inserts e at the given level (1 = leaf), resolving overflows along
// the insertion path bottom-up. Splits keep node identity (the split node
// retains one group; the returned sibling holds the other), so the path
// stays valid. Entries evicted by forced reinsertion are returned for the
// caller to re-place.
func (t *Tree) place(e entry, level int, reinserted map[int]bool) []pendingInsert {
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
func (t *Tree) choosePath(r *Rect, level int) []*node {
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

func (t *Tree) chooseLeastEnlargement(n *node, r *Rect) int {
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

func (t *Tree) chooseLeastOverlap(n *node, r *Rect) int {
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
func (t *Tree) evictFarthest(n *node) []entry {
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
