package rtree

import (
	"fmt"
	"math/rand"
	"testing"
)

// walkRefs traverses from the root counting leaf entries and how many
// parents reference each node. A structurally sound tree references every
// node exactly once.
func walkRefs(t *Tree) (leafEntries int, refs map[*node]int) {
	refs = make(map[*node]int)
	var walk func(n *node)
	walk = func(n *node) {
		refs[n]++
		if n.leaf {
			leafEntries += len(n.entries)
			return
		}
		for i := range n.entries {
			walk(n.entries[i].child)
		}
	}
	walk(t.root)
	return
}

// TestBulkLoadedTreeSurvivesChurn is the regression test for the slab
// aliasing bug: strTile's base case used to hand a node a window of the
// level-wide entry slice, so a post-bulk-load Insert appending into that
// node overwrote the first entry of the adjacent node's window — one
// subtree referenced twice, another lost. Inserting a second copy of a
// contiguous block of the loaded items (the shape of adding one object's
// coefficients) appends into many packed nodes at once.
func TestBulkLoadedTreeSurvivesChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 1548
	items := make([]Item, n)
	for i := range items {
		x, y := rng.Float64()*900, rng.Float64()*900
		w, h := rng.Float64()*40, rng.Float64()*40
		var r Rect
		r.Lo[0], r.Hi[0] = x, x+w
		r.Lo[1], r.Hi[1] = y, y+h
		r.Lo[2], r.Hi[2] = rng.Float64(), 1
		items[i] = Item{Rect: r, Data: int64(i)}
	}
	tr := BulkLoad(Config{Dims: 3, MaxEntries: 20}, items)

	check := func(stage string, wantLen int) {
		t.Helper()
		if tr.Len() != wantLen {
			t.Fatalf("%s: len %d, want %d", stage, tr.Len(), wantLen)
		}
		leaves, refs := walkRefs(tr)
		for nd, c := range refs {
			if c > 1 {
				t.Fatalf("%s: node %p referenced %d times", stage, nd, c)
			}
		}
		if leaves != wantLen {
			t.Fatalf("%s: traversal found %d leaf entries, want %d", stage, leaves, wantLen)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	check("after bulk load", n)

	const churn = 258
	for round := 1; round <= 2; round++ {
		for j := 0; j < churn; j++ {
			tr.Insert(items[j].Rect, items[j].Data+int64(round*n))
		}
		check(fmt.Sprintf("after insert round %d", round), n+round*churn)
	}

	// Every item is still retrievable.
	got := make(map[int64]bool, n)
	tr.Scan(func(_ Rect, data int64) bool { got[data] = true; return true })
	if len(got) != n+2*churn {
		t.Fatalf("scan found %d distinct items, want %d", len(got), n+2*churn)
	}
}
