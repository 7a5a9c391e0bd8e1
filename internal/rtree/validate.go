package rtree

import "fmt"

// Validate checks the structural invariants of the tree and returns the
// first violation found: fanout bounds (root excepted), uniform leaf
// depth, parent MBRs covering children, and stored size and node count
// matching what the walk finds. It is used by tests and is cheap enough
// to call after bulk loads.
func (t *Tree) Validate() error {
	dims := t.cfg.Dims
	leaves, nodes := 0, 0
	var walk func(n *node, depth int, isRoot bool) error
	walk = func(n *node, depth int, isRoot bool) error {
		nodes++
		if !isRoot && len(n.entries) < t.cfg.MinEntries {
			return fmt.Errorf("rtree: node at depth %d underfull: %d < %d",
				depth, len(n.entries), t.cfg.MinEntries)
		}
		if len(n.entries) > t.cfg.MaxEntries {
			return fmt.Errorf("rtree: node at depth %d overfull: %d > %d",
				depth, len(n.entries), t.cfg.MaxEntries)
		}
		if n.leaf {
			if depth != t.height {
				return fmt.Errorf("rtree: leaf at depth %d, height %d", depth, t.height)
			}
			leaves += len(n.entries)
			return nil
		}
		if isRoot && len(n.entries) < 2 {
			return fmt.Errorf("rtree: internal root with %d entries", len(n.entries))
		}
		for i := range n.entries {
			e := &n.entries[i]
			if e.child == nil {
				return fmt.Errorf("rtree: internal entry %d has nil child at depth %d", i, depth)
			}
			mbr := e.child.mbr(dims)
			if !e.rect.contains(&mbr, dims) {
				return fmt.Errorf("rtree: entry rect %v does not cover child mbr %v", e.rect, mbr)
			}
			if err := walk(e.child, depth+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, true); err != nil {
		return err
	}
	if leaves != t.size {
		return fmt.Errorf("rtree: size %d but %d leaf entries", t.size, leaves)
	}
	if nodes != t.nodes {
		return fmt.Errorf("rtree: node count %d but %d nodes", t.nodes, nodes)
	}
	return nil
}
