package rtree

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// thaw rebuilds pointer nodes from tr's arena: the tree InsertLoad
// would freeze into it, which insert can grow and whose recursive walk
// (search, scan) is the reference the packed walk is held to.
func thaw(tr *Tree) *pointerTree {
	a := tr.a
	var build func(i int32) *node
	build = func(i int32) *node {
		nd := a.nodes[i]
		n := &node{leaf: i >= a.leaf0, entries: make([]entry, nd.n)}
		for j := range n.entries {
			e := &n.entries[j]
			e.rect = a.rect(i, j)
			if n.leaf {
				e.data = a.data[nd.first+int32(j)]
			} else {
				e.child = build(nd.first + int32(j))
			}
		}
		return n
	}
	return &pointerTree{cfg: tr.cfg, root: build(0), height: tr.height, size: tr.size, nodes: tr.nodes}
}

// search visits every item whose rectangle intersects q, depth first in
// entry order, invoking fn for each, and returns the nodes read: the
// root and every node whose entry intersects q.
func (t *pointerTree) search(q Rect, fn func(r Rect, data int64)) int64 {
	var walk func(n *node) int64
	walk = func(n *node) int64 {
		io := int64(1) // reading this node costs one page access
		for i := range n.entries {
			e := &n.entries[i]
			if !q.intersects(&e.rect, t.cfg.Dims) {
				continue
			}
			if n.leaf {
				fn(e.rect, e.data)
			} else {
				io += walk(e.child)
			}
		}
		return io
	}
	return walk(t.root)
}

// scan visits every stored item in leaf order.
func (t *pointerTree) scan(fn func(r Rect, data int64)) {
	var walk func(n *node)
	walk = func(n *node) {
		for i := range n.entries {
			if n.leaf {
				fn(n.entries[i].rect, n.entries[i].data)
			} else {
				walk(n.entries[i].child)
			}
		}
	}
	walk(t.root)
}

// ArenaDigest hashes everything the packed walk reads of tr's arena —
// bounds, nodes, runs, payloads, the first leaf and the root MBR — so a
// test can pin a build node for node.
func ArenaDigest(tr *Tree) uint64 {
	a := tr.a
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(a.dims))
	put(uint64(len(a.all)))
	for _, f := range a.bounds {
		put(math.Float64bits(f))
	}
	for _, n := range a.nodes {
		put(uint64(uint32(n.first)) | uint64(uint32(n.n))<<32)
	}
	for _, r := range a.runs {
		put(uint64(uint32(r.lo)) | uint64(uint32(r.hi))<<32)
		put(uint64(r.nodes))
	}
	for _, d := range a.data {
		put(uint64(d))
	}
	put(uint64(a.leaf0))
	for d := 0; d < a.dims; d++ {
		put(math.Float64bits(a.root.Lo[d]))
		put(math.Float64bits(a.root.Hi[d]))
	}
	return h.Sum64()
}
