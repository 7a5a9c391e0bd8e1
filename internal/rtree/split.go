package rtree

import "sort"

// splitRStar splits an overflowing node with the R* topological split:
// choose the axis minimizing the total margin over all candidate
// distributions, then the distribution on that axis with minimum overlap
// (ties broken by minimum combined area). The receiver keeps the first
// group (preserving node identity along insertion paths); the returned
// sibling holds the second.
func (t *pointerTree) splitRStar(n *node) *node {
	dims := t.cfg.Dims
	m := t.cfg.MinEntries
	total := len(n.entries)

	// For each axis and each of the two sortings (by lower then by upper
	// coordinate), candidate distributions put the first k entries in group
	// one, k = m .. total−m.
	type dist struct {
		axis    int
		byUpper bool
		k       int
	}
	bestAxis, bestAxisMargin := -1, 0.0
	for axis := 0; axis < dims; axis++ {
		var marginSum float64
		for _, byUpper := range []bool{false, true} {
			sorted := sortedEntries(n.entries, axis, byUpper)
			for k := m; k <= total-m; k++ {
				g1 := mbrOf(sorted[:k], dims)
				g2 := mbrOf(sorted[k:], dims)
				marginSum += g1.margin(dims) + g2.margin(dims)
			}
		}
		if bestAxis < 0 || marginSum < bestAxisMargin {
			bestAxis, bestAxisMargin = axis, marginSum
		}
	}

	var best dist
	bestOverlap, bestArea := 0.0, 0.0
	first := true
	for _, byUpper := range []bool{false, true} {
		sorted := sortedEntries(n.entries, bestAxis, byUpper)
		for k := m; k <= total-m; k++ {
			g1 := mbrOf(sorted[:k], dims)
			g2 := mbrOf(sorted[k:], dims)
			ov := g1.overlap(&g2, dims)
			area := g1.area(dims) + g2.area(dims)
			if first || ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
				best = dist{axis: bestAxis, byUpper: byUpper, k: k}
				bestOverlap, bestArea = ov, area
				first = false
			}
		}
	}

	sorted := sortedEntries(n.entries, best.axis, best.byUpper)
	sibling := &node{leaf: n.leaf, entries: append([]entry(nil), sorted[best.k:]...)}
	n.entries = append(n.entries[:0], sorted[:best.k]...)
	return sibling
}

// sortedEntries returns a copy of entries sorted along axis by lower
// coordinate (upper as tiebreak), or by upper coordinate (lower as
// tiebreak) when byUpper is set.
func sortedEntries(entries []entry, axis int, byUpper bool) []entry {
	out := append([]entry(nil), entries...)
	sort.SliceStable(out, func(i, j int) bool {
		if byUpper {
			if out[i].rect.Hi[axis] != out[j].rect.Hi[axis] {
				return out[i].rect.Hi[axis] < out[j].rect.Hi[axis]
			}
			return out[i].rect.Lo[axis] < out[j].rect.Lo[axis]
		}
		if out[i].rect.Lo[axis] != out[j].rect.Lo[axis] {
			return out[i].rect.Lo[axis] < out[j].rect.Lo[axis]
		}
		return out[i].rect.Hi[axis] < out[j].rect.Hi[axis]
	})
	return out
}

func mbrOf(entries []entry, dims int) Rect {
	r := entries[0].rect
	for i := 1; i < len(entries); i++ {
		r.extend(&entries[i].rect, dims)
	}
	return r
}

// splitQuadratic splits an overflowing node with Guttman's quadratic
// split: seed the two groups with the pair of entries wasting the most
// area if grouped, then repeatedly assign the entry with the strongest
// preference. The receiver keeps group one; the sibling gets group two.
func (t *pointerTree) splitQuadratic(n *node) *node {
	dims := t.cfg.Dims
	m := t.cfg.MinEntries
	entries := n.entries

	// PickSeeds: maximize dead area of the pair's union.
	s1, s2, worst := 0, 1, -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			u := entries[i].rect.union(&entries[j].rect, dims)
			dead := u.area(dims) - entries[i].rect.area(dims) - entries[j].rect.area(dims)
			if dead > worst {
				s1, s2, worst = i, j, dead
			}
		}
	}

	g1 := []entry{entries[s1]}
	g2 := []entry{entries[s2]}
	r1, r2 := entries[s1].rect, entries[s2].rect
	rest := make([]entry, 0, len(entries)-2)
	for i := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, entries[i])
		}
	}

	for len(rest) > 0 {
		// If one group must take all remaining entries to reach the minimum
		// fill, assign them wholesale.
		if len(g1)+len(rest) == m {
			g1 = append(g1, rest...)
			for i := range rest {
				r1.extend(&rest[i].rect, dims)
			}
			break
		}
		if len(g2)+len(rest) == m {
			g2 = append(g2, rest...)
			for i := range rest {
				r2.extend(&rest[i].rect, dims)
			}
			break
		}
		// PickNext: the entry with the greatest preference difference.
		bestIdx, bestDiff := 0, -1.0
		var bestD1, bestD2 float64
		for i := range rest {
			d1 := r1.enlargement(&rest[i].rect, dims)
			d2 := r2.enlargement(&rest[i].rect, dims)
			diff := d1 - d2
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestIdx, bestDiff, bestD1, bestD2 = i, diff, d1, d2
			}
		}
		e := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		toG1 := bestD1 < bestD2
		if bestD1 == bestD2 {
			// Ties: smaller area, then fewer entries.
			a1, a2 := r1.area(dims), r2.area(dims)
			toG1 = a1 < a2 || (a1 == a2 && len(g1) <= len(g2))
		}
		if toG1 {
			g1 = append(g1, e)
			r1.extend(&e.rect, dims)
		} else {
			g2 = append(g2, e)
			r2.extend(&e.rect, dims)
		}
	}

	sibling := &node{leaf: n.leaf, entries: g2}
	n.entries = append(n.entries[:0], g1...)
	return sibling
}
