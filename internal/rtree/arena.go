package rtree

import (
	"fmt"
	"math"
	"math/bits"
)

// arena is the packed form of a Tree, its only one: every node, in
// breadth-first order, in flat arrays. A node's children are
// consecutive in that order, so an internal node stores only the index
// of its first child and the child index is implicit — the arena holds
// no pointers. It is immutable once written. BulkLoad writes its STR
// levels straight into one; InsertLoad writes the pointer nodes its
// insertions built.
type arena struct {
	dims int
	// all is 0, 1, …, slots−1, one index per entry slot of a node
	// (slots is the tree's MaxEntries rounded up to a multiple of 4):
	// the list the survivor walk's filter starts from.
	all []int32
	// bounds holds one fixed block of 2·dims·slots float64 per node,
	// structure-of-arrays over the tree's live dimensions only: the
	// slots lower bounds of dimension 0, then of dimension 1, …, then
	// the upper bounds likewise. Testing a node's ≤ MaxEntries entries
	// against a query reads 2·dims short contiguous runs, which the
	// kernel reads four entries at a time; a row's padding is never
	// read as an entry.
	bounds []float64
	nodes  []arenaNode
	// runs is each node's subtree: its payloads, data[lo:hi], and its
	// node count. Every leaf sits at one depth, so breadth-first order
	// keeps a subtree's leaves, and hence its payloads, contiguous. The
	// walk reads a run only for an entry that lies inside the query.
	runs []arenaRun
	// root is the root's MBR, which search ranks the query's dimensions
	// against.
	root Rect
	// leaf0 is the index of the first leaf. Every leaf sits at the same
	// depth, so breadth-first order puts all of them after the last
	// internal node.
	leaf0 int32
	data  []int64 // leaf payloads, in leaf then entry order
}

// arenaNode is the 8 B header the walk reads for every node: its entry
// count and where its entries point — the first child's node index, or
// for a leaf the index of its first payload in data.
type arenaNode struct {
	first int32
	n     int32
}

// arenaRun is a node's subtree as a whole: data[lo:hi] and nodes nodes.
type arenaRun struct {
	lo, hi, nodes int32
}

// arenaWriter fills a new arena node by node in breadth-first order, a
// node's entries in entry order: BulkLoad feeds it the STR levels,
// InsertLoad's freeze the pointer nodes.
type arenaWriter struct {
	a *arena
	// at is the node being written; queued counts the nodes placed or
	// promised so far — the root and every child of a node written — and
	// is where the next internal node's first child goes.
	at     int
	queued int32
}

// newArenaWriter allocates an arena of nodes nodes over size payloads.
// The arena indexes payloads with int32, which bounds the tree's size.
func newArenaWriter(cfg Config, nodes, size int) *arenaWriter {
	checkPackedSize(size)
	dims, slots := cfg.Dims, (cfg.MaxEntries+3)&^3
	a := &arena{
		dims:   dims,
		all:    make([]int32, slots),
		bounds: make([]float64, nodes*2*dims*slots),
		nodes:  make([]arenaNode, nodes),
		runs:   make([]arenaRun, nodes),
		leaf0:  -1,
		data:   make([]int64, 0, size),
	}
	for i := range a.all {
		a.all[i] = int32(i)
	}
	return &arenaWriter{a: a, at: -1, queued: 1}
}

// checkPackedSize panics if size items overflow the arena's int32
// indices.
func checkPackedSize(size int) {
	if size > math.MaxInt32 {
		panic(fmt.Sprintf("rtree: %d items exceed the packed walk's int32 indices", size))
	}
}

// node starts the next node: a leaf, whose n payloads follow, or the
// parent of the next n nodes not yet promised.
func (w *arenaWriter) node(leaf bool, n int) {
	w.at++
	a := w.a
	if leaf {
		if a.leaf0 < 0 {
			a.leaf0 = int32(w.at)
		}
		a.nodes[w.at] = arenaNode{first: int32(len(a.data)), n: int32(n)}
		return
	}
	a.nodes[w.at] = arenaNode{first: w.queued, n: int32(n)}
	w.queued += int32(n)
}

// entry writes the bounds of the current node's entry j.
func (w *arenaWriter) entry(j int, r *Rect) {
	a := w.a
	dims, slots := a.dims, len(a.all)
	blk := a.bounds[w.at*2*dims*slots:]
	for d := 0; d < dims; d++ {
		blk[d*slots+j] = r.Lo[d]
		blk[(dims+d)*slots+j] = r.Hi[d]
	}
}

// payload appends the current leaf's next payload.
func (w *arenaWriter) payload(data int64) { w.a.data = append(w.a.data, data) }

// finish derives the runs and the root MBR and returns the arena.
func (w *arenaWriter) finish() *arena {
	a := w.a
	// Children follow their parent, so one backward pass sees every
	// child's run before its parent's.
	for i := len(a.nodes) - 1; i >= 0; i-- {
		nd := a.nodes[i]
		if int32(i) >= a.leaf0 {
			a.runs[i] = arenaRun{lo: nd.first, hi: nd.first + nd.n, nodes: 1}
			continue
		}
		r := arenaRun{lo: a.runs[nd.first].lo, hi: a.runs[nd.first+nd.n-1].hi, nodes: 1}
		for c := nd.first; c < nd.first+nd.n; c++ {
			r.nodes += a.runs[c].nodes
		}
		a.runs[i] = r
	}
	a.root = a.mbr(0)
	return a
}

// rect returns entry j of node i.
func (a *arena) rect(i int32, j int) Rect {
	dims, slots := a.dims, len(a.all)
	blk := a.bounds[int(i)*2*dims*slots:]
	var r Rect
	for d := 0; d < dims; d++ {
		r.Lo[d], r.Hi[d] = blk[d*slots+j], blk[(dims+d)*slots+j]
	}
	return r
}

// mbr returns the MBR of node i's entries: the zero Rect for an empty
// node.
func (a *arena) mbr(i int32) Rect {
	n := int(a.nodes[i].n)
	if n == 0 {
		return Rect{}
	}
	r := a.rect(i, 0)
	for j := 1; j < n; j++ {
		e := a.rect(i, j)
		r.extend(&e, a.dims)
	}
	return r
}

// order ranks the live dimensions by the share of the root MBR's extent
// that q covers, clipped to the root, narrowest first: the dimension
// that rejects the most entries is the one filtered first. A dimension
// q misses, or an inverted one, ranks first with share 0; one in which
// the root has no extent covers all of it or nothing. Any order selects
// the same entries, so a NaN needs no care beyond keeping a permutation.
func (a *arena) order(q *Rect) [MaxDims]int {
	var ord [MaxDims]int
	var share [MaxDims]float64
	for d := 0; d < a.dims; d++ {
		lo, hi := max(q.Lo[d], a.root.Lo[d]), min(q.Hi[d], a.root.Hi[d])
		if hi >= lo {
			share[d] = 1
			if ext := a.root.Hi[d] - a.root.Lo[d]; ext > 0 {
				share[d] = (hi - lo) / ext
			}
		}
		ord[d] = d
		for j := d; j > 0 && share[ord[j]] < share[ord[j-1]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	return ord
}

// search is SearchInto over the arena: the same node-read count and the
// same payloads as a recursive walk from the root that reads every node
// whose entry intersects q, in a different order. The
// traversal is level by level through a queue kept in the cursor;
// because the arena is laid out in that same breadth-first order, node
// indices only ever increase and the walk moves forward through memory.
//
// A surviving internal entry — one that intersects q — that also lies
// inside q is not queued: its whole subtree intersects q, so its run is
// appended and its node count added, the reads the recursive walk would
// make. That holds because every stored rect has lo ≤ hi (Box refuses
// an inverted one) and an entry's rect covers its child's. The other
// survivors are queued or emitted.
//
// Two walks do this and give the same queue, buffer and count: the mask
// walk where the AVX2 kernel runs, the survivor walk elsewhere.
func (a *arena) search(q *Rect, cur *Cursor, buf []int64) ([]int64, int64) {
	if useKernel {
		return a.searchMasks(q, cur, buf)
	}
	return a.searchSurvivors(q, cur, buf)
}

// searchMasks filters each node with filterNode, which tests every
// entry in every dimension and returns the entries that intersect q and
// those that lie inside it as bit masks. A leaf emits the payloads of
// hit; an internal node queues hit &^ in and emits the runs of hit & in,
// each in ascending entry order as the survivor walk does.
func (a *arena) searchMasks(q *Rect, cur *Cursor, buf []int64) ([]int64, int64) {
	dims, slots := a.dims, len(a.all)
	stride := 2 * dims * slots
	var skipped int64
	queue := append(cur.idx[:0], 0)
	for h := 0; h < len(queue); h++ {
		ni := queue[h]
		nd := a.nodes[ni]
		hit, in := filterNode(a.bounds[int(ni)*stride:][:stride], slots, dims, int(nd.n), q)
		if ni >= a.leaf0 {
			for ; hit != 0; hit &= hit - 1 {
				buf = append(buf, a.data[nd.first+int32(bits.TrailingZeros64(hit))])
			}
			continue
		}
		for m := hit &^ in; m != 0; m &= m - 1 {
			queue = append(queue, nd.first+int32(bits.TrailingZeros64(m)))
		}
		for m := hit & in; m != 0; m &= m - 1 {
			r := a.runs[nd.first+int32(bits.TrailingZeros64(m))]
			buf = append(buf, a.data[r.lo:r.hi]...)
			skipped += int64(r.nodes)
		}
	}
	cur.idx = queue
	return buf, int64(len(queue)) + skipped
}

// searchSurvivors filters each node's entries one dimension at a time,
// in order's ranking, into the cursor's survivor list. The filter is an
// AND of the comparisons Rect.intersects makes, so neither the order
// nor the survivors can differ from it; containment is tested on the
// survivors of an internal node only.
func (a *arena) searchSurvivors(q *Rect, cur *Cursor, buf []int64) ([]int64, int64) {
	dims, slots := a.dims, len(a.all)
	stride := 2 * dims * slots
	if cap(cur.sel) < slots {
		cur.sel = make([]int32, slots)
	}
	sel := cur.sel[:slots]
	ord := a.order(q)
	var skipped int64
	queue := append(cur.idx[:0], 0)
	for h := 0; h < len(queue); h++ {
		ni := queue[h]
		nd := a.nodes[ni]
		blk := a.bounds[int(ni)*stride : int(ni)*stride+stride]
		n := int(nd.n)
		live := a.all[:n]
		for _, d := range ord[:dims] {
			if len(live) == 0 {
				break
			}
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
	next:
		for _, i := range live {
			for _, d := range ord[:dims] {
				if !(q.Lo[d] <= blk[d*slots+int(i)] && blk[(dims+d)*slots+int(i)] <= q.Hi[d]) {
					queue = append(queue, nd.first+i)
					continue next
				}
			}
			r := a.runs[nd.first+i]
			buf = append(buf, a.data[r.lo:r.hi]...)
			skipped += int64(r.nodes)
		}
	}
	cur.idx = queue
	return buf, int64(len(queue)) + skipped
}
