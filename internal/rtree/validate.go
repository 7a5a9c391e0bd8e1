package rtree

import "fmt"

// Validate checks the structural invariants of the tree's arena and
// returns the first violation found: fanout bounds (root excepted),
// uniform leaf depth, an internal root of at least two entries, parent
// MBRs covering children, stored size and node count matching what the
// walk finds, and the layout the packed walk reads. It is used by tests
// and is cheap enough to call after a build.
func (t *Tree) Validate() error {
	return t.a.validate(t.cfg, t.height, t.size, t.nodes)
}

// validate is Validate over an arena, level by level from the root. It
// also checks what the packed walk relies on: each level's nodes are the
// children of the level above in order, leaves come last with their
// payloads in order, the runs span each subtree, and root is node 0's
// MBR.
func (a *arena) validate(cfg Config, height, size, nodeCount int) error {
	if a.dims != cfg.Dims || len(a.all) != (cfg.MaxEntries+3)&^3 {
		return fmt.Errorf("rtree: arena of %d dims, %d slots for a %d-dim tree of fanout %d",
			a.dims, len(a.all), cfg.Dims, cfg.MaxEntries)
	}
	nodes := int32(len(a.nodes))
	if len(a.nodes) != nodeCount {
		return fmt.Errorf("rtree: node count %d but the arena holds %d", nodeCount, nodes)
	}
	if len(a.runs) != len(a.nodes) || len(a.bounds) != len(a.nodes)*2*a.dims*len(a.all) {
		return fmt.Errorf("rtree: arena of %d nodes holds %d runs, %d bounds",
			nodes, len(a.runs), len(a.bounds))
	}
	for i, slot := range a.all {
		if slot != int32(i) {
			return fmt.Errorf("rtree: slot list holds %d at %d", slot, i)
		}
	}
	for i, nd := range a.nodes {
		if nd.n < 0 || int(nd.n) > cfg.MaxEntries {
			return fmt.Errorf("rtree: node %d holds %d entries, fanout %d", i, nd.n, cfg.MaxEntries)
		}
	}
	payloads := int32(0)
	lo, hi := int32(0), int32(1) // the level's nodes
	for depth := 1; lo < hi; depth++ {
		if hi > nodes {
			return fmt.Errorf("rtree: level %d ends at node %d of %d", depth, hi, nodes)
		}
		leaves := lo >= a.leaf0
		if !leaves && hi > a.leaf0 {
			return fmt.Errorf("rtree: level %d mixes internal nodes and leaves", depth)
		}
		if leaves && depth != height {
			return fmt.Errorf("rtree: leaves at depth %d, height %d", depth, height)
		}
		next := hi
		for i := lo; i < hi; i++ {
			nd, run := a.nodes[i], a.runs[i]
			n := int(nd.n)
			if i > 0 && n < cfg.MinEntries {
				return fmt.Errorf("rtree: node %d at depth %d underfull: %d < %d", i, depth, n, cfg.MinEntries)
			}
			if leaves {
				if nd.first != payloads || run != (arenaRun{lo: payloads, hi: payloads + nd.n, nodes: 1}) {
					return fmt.Errorf("rtree: leaf %d holds payloads from %d (run %+v), want %d", i, nd.first, run, payloads)
				}
				payloads += nd.n
				continue
			}
			if i == 0 && n < 2 {
				return fmt.Errorf("rtree: internal root with %d entries", n)
			}
			if nd.first != next || next+nd.n > nodes {
				return fmt.Errorf("rtree: node %d's children start at %d, want %d", i, nd.first, next)
			}
			want := arenaRun{lo: a.runs[next].lo, hi: a.runs[next+nd.n-1].hi, nodes: 1}
			for j := 0; j < n; j++ {
				c := next + int32(j)
				e, mbr := a.rect(i, j), a.mbr(c)
				if !e.contains(&mbr, a.dims) {
					return fmt.Errorf("rtree: entry rect %v does not cover child mbr %v", e, mbr)
				}
				want.nodes += a.runs[c].nodes
			}
			if run != want {
				return fmt.Errorf("rtree: node %d's run %+v, want %+v", i, run, want)
			}
			next += nd.n
		}
		lo, hi = hi, next
	}
	if hi != nodes {
		return fmt.Errorf("rtree: node count %d but %d nodes reachable", nodes, hi)
	}
	if int(payloads) != size || len(a.data) != size {
		return fmt.Errorf("rtree: size %d but %d leaf entries, %d payloads", size, payloads, len(a.data))
	}
	if a.root != a.mbr(0) {
		return fmt.Errorf("rtree: root MBR %v, node 0 covers %v", a.root, a.mbr(0))
	}
	return nil
}
