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
// The resulting tree supports Insert/Delete afterwards.
func BulkLoad(cfg Config, items []Item) *Tree {
	t := New(cfg)
	if len(items) == 0 {
		return t
	}
	cfg = t.cfg // normalized (MinEntries filled)

	entries := make([]entry, len(items))
	for i, it := range items {
		entries[i] = entry{rect: it.Rect, data: it.Data}
	}

	sc := &tileScratch{keys: make([]centerKey, len(entries)), moved: make([]entry, len(entries))}
	level := packLevel(entries, cfg, true, sc)
	height, nodes := 1, len(level)
	for len(level) > 1 {
		parents := make([]entry, len(level))
		for i, n := range level {
			parents[i] = entry{rect: n.mbr(cfg.Dims), child: n}
		}
		level = packLevel(parents, cfg, false, sc)
		height++
		nodes += len(level)
	}
	t.root = level[0]
	t.height = height
	t.size = len(items)
	t.nodes = nodes
	t.frozen.Store(t.freeze())
	return t
}

// packLevel groups entries into nodes of at most MaxEntries using STR
// tiling, returning the nodes.
func packLevel(entries []entry, cfg Config, leaf bool, sc *tileScratch) []*node {
	groups := strTile(entries, cfg.Dims, 0, cfg.MaxEntries, sc)
	nodes := make([]*node, len(groups))
	for i, g := range groups {
		nodes[i] = &node{leaf: leaf, entries: g}
	}
	return nodes
}

// strTile recursively slabs entries along dimension d and chunks the last
// dimension into evenly sized groups of at most maxEntries. Even chunking
// keeps every group at ≥ half capacity, satisfying the minimum-fill
// invariant.
func strTile(entries []entry, dims, d, maxEntries int, sc *tileScratch) [][]entry {
	if len(entries) <= maxEntries {
		// Copy: entries is a window into the level-wide slice shared with
		// sibling slabs. Handing it to a node as-is would let a later
		// in-place append (Insert/Delete reinsertion) overwrite the first
		// entry of the adjacent node's window.
		return [][]entry{append([]entry(nil), entries...)}
	}
	sc.sortByCenter(entries, d)
	if d == dims-1 {
		return chunkEvenly(entries, maxEntries)
	}
	// Number of nodes this subtree needs, split into slabs so that the
	// remaining dimensions can tile each slab evenly.
	nodes := (len(entries) + maxEntries - 1) / maxEntries
	slabs := int(math.Ceil(math.Pow(float64(nodes), 1/float64(dims-d))))
	if slabs < 1 {
		slabs = 1
	}
	per := (len(entries) + slabs - 1) / slabs
	var out [][]entry
	for off := 0; off < len(entries); off += per {
		end := off + per
		if end > len(entries) {
			end = len(entries)
		}
		out = append(out, strTile(entries[off:end], dims, d+1, maxEntries, sc)...)
	}
	return out
}

// tileScratch is the sort scratch one BulkLoad shares across every slab
// of every level, sized for the leaf level (the largest).
type tileScratch struct {
	keys  []centerKey
	moved []entry
}

type centerKey struct {
	center float64
	at     int
}

// sortByCenter orders entries by their centre along dimension d. It
// sorts 16-byte {centre, position} keys and then moves each 80-byte
// entry once, instead of letting the sort swap entries. The order of
// equal centres is whatever the (unstable) sort makes of the comparison
// outcomes, which depend on the centres alone, so the tree built is the
// one sorting the entries themselves builds, node for node.
func (sc *tileScratch) sortByCenter(entries []entry, d int) {
	keys, moved := sc.keys[:len(entries)], sc.moved[:len(entries)]
	for i := range entries {
		keys[i] = centerKey{entries[i].rect.center(d), i}
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
		moved[i] = entries[k.at]
	}
	copy(entries, moved)
}

// chunkEvenly splits entries into ceil(n/max) groups whose sizes differ by
// at most one.
func chunkEvenly(entries []entry, max int) [][]entry {
	n := len(entries)
	groups := (n + max - 1) / max
	base := n / groups
	rem := n % groups
	out := make([][]entry, 0, groups)
	off := 0
	for g := 0; g < groups; g++ {
		size := base
		if g < rem {
			size++
		}
		out = append(out, append([]entry(nil), entries[off:off+size]...))
		off += size
	}
	return out
}
