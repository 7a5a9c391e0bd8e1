package rtree

// Delete removes one item whose rectangle equals r (over the tree's
// dimensions) and whose payload equals data. It reports whether an item
// was removed. Underfull nodes along the way are condensed: their
// remaining entries are reinserted at their original level, per Guttman's
// CondenseTree.
func (t *Tree) Delete(r Rect, data int64) bool {
	path, idx := t.findLeaf(t.root, &r, data, 1, t.pathScratch())
	if path == nil {
		return false
	}
	t.thaw()
	leaf := path[len(path)-1]
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	t.condense(path)
	return true
}

// findLeaf locates the leaf holding (r, data), returning the root-to-leaf
// path and the entry index, or (nil, 0) if absent.
func (t *Tree) findLeaf(n *node, r *Rect, data int64, level int, path []*node) ([]*node, int) {
	dims := t.cfg.Dims
	path = append(path, n)
	if n.leaf {
		for i := range n.entries {
			if n.entries[i].data == data && rectEqual(&n.entries[i].rect, r, dims) {
				return path, i
			}
		}
		return nil, 0
	}
	for i := range n.entries {
		if n.entries[i].rect.contains(r, dims) || n.entries[i].rect.intersects(r, dims) {
			if p, idx := t.findLeaf(n.entries[i].child, r, data, level, path); p != nil {
				return p, idx
			}
		}
	}
	return nil, 0
}

func rectEqual(a, b *Rect, dims int) bool {
	for d := 0; d < dims; d++ {
		if a.Lo[d] != b.Lo[d] || a.Hi[d] != b.Hi[d] {
			return false
		}
	}
	return true
}

// condense walks the deletion path bottom-up, removing underfull nodes and
// queueing their entries for reinsertion, then reinserts the orphans at
// their original levels and shrinks the root if it has a single child.
func (t *Tree) condense(path []*node) {
	dims := t.cfg.Dims
	type orphan struct {
		e     entry
		level int
	}
	var orphans []orphan
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i]
		parent := path[i-1]
		nodeLevel := t.height - i
		if len(n.entries) < t.cfg.MinEntries {
			// Remove n from its parent; queue its entries.
			for j := range parent.entries {
				if parent.entries[j].child == n {
					parent.entries = append(parent.entries[:j], parent.entries[j+1:]...)
					break
				}
			}
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e: e, level: nodeLevel})
			}
			t.nodes--
			continue
		}
		// Tighten the parent's rect for n.
		for j := range parent.entries {
			if parent.entries[j].child == n {
				parent.entries[j].rect = n.mbr(dims)
				break
			}
		}
	}
	// Reinsert orphans. Subtree orphans are placed at their original level;
	// leaf entries at level 1.
	for _, o := range orphans {
		level := o.level
		if level > t.height {
			level = t.height
		}
		t.insertWithReinsertion(o.e, level)
	}
	// Shrink the root while it is a non-leaf with a single child.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.height--
		t.nodes--
	}
	// An emptied leaf root stays a valid empty tree.
	if t.root.leaf && len(t.root.entries) == 0 {
		t.height = 1
	}
}
