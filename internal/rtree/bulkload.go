package rtree

import (
	"math"
	"slices"
)

// Item is one rectangle/payload pair for bulk loading.
type Item struct {
	Rect Rect
	Data int64
}

// BulkLoad builds a tree over the items with Sort-Tile-Recursive packing
// (Leutenegger et al.): items are sorted by center coordinate and tiled
// into slabs dimension by dimension, then packed into full nodes, and the
// process repeats one tree level at a time. For the static coefficient
// datasets of the experiments it is orders of magnitude faster than
// one-by-one insertion and yields trees with equal or better query I/O.
//
// The tiling runs over index permutations of the items and of each
// level's nodes, and the nodes are written straight into the packed
// arena SearchInto walks: no pointer node is built.
func BulkLoad(cfg Config, items []Item) *Tree {
	checkPackedSize(len(items))
	cfg = cfg.normalized()
	t := &Tree{cfg: cfg, size: len(items)}

	// levels[0] tiles the items into leaves; levels[k] tiles the nodes of
	// levels[k-1], and the last level is the root alone.
	s := &strBuild{dims: cfg.Dims, max: cfg.MaxEntries, keys: make([]centerKey, len(items))}
	levels := []strLevel{s.level(items)}
	for len(levels[len(levels)-1].ends) > 1 {
		levels = append(levels, s.level(levels[len(levels)-1].mbrs(cfg.Dims)))
	}
	t.height = len(levels)
	for _, lv := range levels {
		t.nodes += len(lv.ends)
	}

	// The arena is breadth-first: a level's nodes are its parents'
	// children, parent by parent, each parent's in entry order.
	w := newArenaWriter(cfg, t.nodes, t.size)
	order := []int32{0} // the level's nodes, by tile index, in arena order
	for k := len(levels) - 1; k >= 0; k-- {
		lv := &levels[k]
		var below []int32 // the level below's nodes in arena order
		if k > 0 {
			below = make([]int32, 0, len(levels[k-1].ends))
		}
		for _, g := range order {
			members := lv.group(g)
			w.node(k == 0, len(members))
			for j, m := range members {
				w.entry(j, &lv.items[m].Rect)
				if k == 0 {
					w.payload(items[m].Data)
				}
			}
			if k > 0 {
				below = append(below, members...)
			}
		}
		order = below
	}
	t.a = w.finish()
	return t
}

// strLevel is one level of an STR build: items tiled into nodes. Node g
// holds the entries perm[ends[g-1]:ends[g]] (from 0 for g = 0), each an
// index into items.
type strLevel struct {
	items []Item
	perm  []int32
	ends  []int32
}

// group returns node g's entries.
func (lv *strLevel) group(g int32) []int32 {
	lo := int32(0)
	if g > 0 {
		lo = lv.ends[g-1]
	}
	return lv.perm[lo:lv.ends[g]]
}

// mbrs returns the level's nodes as the items of the level above: node
// g's MBR, in tile order. Data is unused above the leaves.
func (lv *strLevel) mbrs(dims int) []Item {
	out := make([]Item, len(lv.ends))
	for g := range out {
		members := lv.group(int32(g))
		r := lv.items[members[0]].Rect
		for _, m := range members[1:] {
			r.extend(&lv.items[m].Rect, dims)
		}
		out[g].Rect = r
	}
	return out
}

// strBuild is one BulkLoad's tiler: the tree's shape and the sort keys
// every slab of every level shares, sized for the leaf level (the
// largest).
type strBuild struct {
	dims, max int
	keys      []centerKey
	ends      []int32
}

type centerKey struct {
	center float64
	at     int32
}

// level tiles items into nodes of at most max entries.
func (s *strBuild) level(items []Item) strLevel {
	perm := make([]int32, len(items))
	for i := range perm {
		perm[i] = int32(i)
	}
	nodes := (len(items) + s.max - 1) / s.max
	s.ends = make([]int32, 0, max(nodes, 1))
	s.tile(items, perm, 0, 0)
	return strLevel{items: items, perm: perm, ends: s.ends}
}

// tile recursively slabs perm, the window of the level's permutation
// that starts at offset off, along dimension d and chunks the last
// dimension into evenly sized groups of at most max, appending each
// group's end to s.ends. Even chunking keeps every group at ≥ half capacity, satisfying
// the minimum-fill invariant.
func (s *strBuild) tile(items []Item, perm []int32, off int32, d int) {
	n := len(perm)
	if n <= s.max {
		s.ends = append(s.ends, off+int32(n))
		return
	}
	s.sortByCenter(items, perm, d)
	if d == s.dims-1 {
		// ceil(n/max) groups whose sizes differ by at most one.
		groups := (n + s.max - 1) / s.max
		base, rem := n/groups, n%groups
		for g := 0; g < groups; g++ {
			off += int32(base)
			if g < rem {
				off++
			}
			s.ends = append(s.ends, off)
		}
		return
	}
	// Number of nodes this subtree needs, split into slabs so that the
	// remaining dimensions can tile each slab evenly.
	nodes := (n + s.max - 1) / s.max
	slabs := int(math.Ceil(math.Pow(float64(nodes), 1/float64(s.dims-d))))
	if slabs < 1 {
		slabs = 1
	}
	per := (n + slabs - 1) / slabs
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		s.tile(items, perm[lo:hi], off+int32(lo), d+1)
	}
}

// sortByCenter orders perm by its items' centres along dimension d. It
// sorts 16-byte {centre, item} keys, not the 72-byte items. The order of
// equal centres is whatever the (unstable) sort makes of the comparison
// outcomes, which depend on the centres alone, so the tree built is the
// one sorting the items themselves builds, node for node.
func (s *strBuild) sortByCenter(items []Item, perm []int32, d int) {
	keys := s.keys[:len(perm)]
	for i, at := range perm {
		keys[i] = centerKey{items[at].Rect.center(d), at}
	}
	slices.SortFunc(keys, func(a, b centerKey) int {
		switch {
		case a.center < b.center:
			return -1
		case a.center > b.center:
			return 1
		}
		return 0
	})
	for i, k := range keys {
		perm[i] = k.at
	}
}
