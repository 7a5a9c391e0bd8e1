package rtree_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rtree"
)

// TestBulkLoadArenaPinned holds BulkLoad to the arena of the builder
// before it (git fbf5351), which packed pointer nodes and copied them
// into the arena: the benchmark city's arena and those of tie-heavy
// random sets at 2–4 dims hash to the digests that builder gave —
// bounds, nodes, runs, payloads, first leaf and root MBR, node for node.
func TestBulkLoadArenaPinned(t *testing.T) {
	tr, _ := cityTree(t)
	if got, want := rtree.ArenaDigest(tr), uint64(0x51642a50ffa05dc9); got != want {
		t.Errorf("bench city: arena digest %#x, want %#x (%d nodes, height %d)", got, want, tr.NumNodes(), tr.Height())
	}
	want := map[string]uint64{
		"2D n=1": 0xa9a9b8158cf5d72, "2D n=20": 0x64e79983da6b5a3b, "2D n=21": 0x70f57b03f03481e1,
		"2D n=399": 0x42941a7090b8897b, "2D n=5000": 0xe7a2215f86c0ee37, "2D n=50000": 0x49e4301a160ce844,
		"3D n=1": 0x444470233f044243, "3D n=20": 0x9f980c491782b0cf, "3D n=21": 0xf119c381b172c2e4,
		"3D n=399": 0xf5af9f77ccac3fda, "3D n=5000": 0xa52a2497f8f7b7a, "3D n=50000": 0x859fbf70de645f33,
		"4D n=1": 0x8557a062c483514, "4D n=20": 0x91e8d21febbb122e, "4D n=21": 0x84c0d24d5810cee8,
		"4D n=399": 0x371ee04f5c0373d, "4D n=5000": 0x510d6eff327cec93, "4D n=50000": 0x13664c11a75b00d,
	}
	for _, dims := range []int{2, 3, 4} {
		for _, n := range []int{1, 20, 21, 399, 5000, 50000} {
			label := fmt.Sprintf("%dD n=%d", dims, n)
			if got := rtree.ArenaDigest(rtree.BulkLoad(rtree.DefaultConfig(dims), latticeItems(n, dims))); got != want[label] {
				t.Errorf("%s: arena digest %#x, want %#x", label, got, want[label])
			}
		}
	}
}

// latticeItems draws n boxes on a small integer lattice, seeded by n and
// dims: most centres tie with many others in every dimension.
func latticeItems(n, dims int) []rtree.Item {
	rng := rand.New(rand.NewSource(int64(n*7 + dims)))
	items := make([]rtree.Item, n)
	for i := range items {
		var r rtree.Rect
		for d := 0; d < dims; d++ {
			lo := float64(rng.Intn(8))
			r.Lo[d], r.Hi[d] = lo, lo+float64(rng.Intn(3))
		}
		items[i] = rtree.Item{Rect: r, Data: int64(i)}
	}
	return items
}

// TestInsertLoadArenaPinned holds InsertLoad to the insertion of the
// tree before it (git 7cb9714), which grew pointer nodes by Insert and
// froze them into the arena on the first search: R* and quadratic
// insertion of the tie-heavy lattice sets at 2–4 dims hash to the
// digests that tree gave, node for node. A tree of one leaf (n ≤ 20)
// holds its items in insertion order, as BulkLoad's does.
func TestInsertLoadArenaPinned(t *testing.T) {
	want := map[string]uint64{
		"R*-tree 2D n=1": 0xa9a9b8158cf5d72, "R*-tree 2D n=20": 0x64e79983da6b5a3b, "R*-tree 2D n=21": 0x528b7aa7cae14ace,
		"R*-tree 2D n=399": 0xb5f01484cb65c758, "R*-tree 2D n=5000": 0xe6520cc122414043,
		"R*-tree 3D n=1": 0x444470233f044243, "R*-tree 3D n=20": 0x9f980c491782b0cf, "R*-tree 3D n=21": 0xa51008d6ccbf14a8,
		"R*-tree 3D n=399": 0x64b5faffc1db055a, "R*-tree 3D n=5000": 0xf8eb48103b6c9f6b,
		"R*-tree 4D n=1": 0x8557a062c483514, "R*-tree 4D n=20": 0x91e8d21febbb122e, "R*-tree 4D n=21": 0xa7e1c9b7b4214bd3,
		"R*-tree 4D n=399": 0x880bef6a6e7a108e, "R*-tree 4D n=5000": 0x608133b94db1afda,
		"R-tree(quadratic) 2D n=1": 0xa9a9b8158cf5d72, "R-tree(quadratic) 2D n=20": 0x64e79983da6b5a3b,
		"R-tree(quadratic) 2D n=21": 0xc8cdd31da6a69a0a, "R-tree(quadratic) 2D n=399": 0x951b756b275ff3a1,
		"R-tree(quadratic) 2D n=5000": 0x3db330d7b75e8887,
		"R-tree(quadratic) 3D n=1":    0x444470233f044243, "R-tree(quadratic) 3D n=20": 0x9f980c491782b0cf,
		"R-tree(quadratic) 3D n=21": 0x7b581b8908381e18, "R-tree(quadratic) 3D n=399": 0xf33963efeb8282c5,
		"R-tree(quadratic) 3D n=5000": 0x96bba1e0562a760c,
		"R-tree(quadratic) 4D n=1":    0x8557a062c483514, "R-tree(quadratic) 4D n=20": 0x91e8d21febbb122e,
		"R-tree(quadratic) 4D n=21": 0x1f565dfd1a53fc4d, "R-tree(quadratic) 4D n=399": 0x197e5d400337676f,
		"R-tree(quadratic) 4D n=5000": 0xd8e5a91ebbdfbf32,
	}
	for _, variant := range []rtree.Variant{rtree.RStar, rtree.Quadratic} {
		for _, dims := range []int{2, 3, 4} {
			for _, n := range []int{1, 20, 21, 399, 5000} {
				cfg := rtree.DefaultConfig(dims)
				cfg.Variant = variant
				tr := rtree.InsertLoad(cfg, latticeItems(n, dims))
				label := fmt.Sprintf("%v %dD n=%d", variant, dims, n)
				if got := rtree.ArenaDigest(tr); got != want[label] {
					t.Errorf("%s: arena digest %#x, want %#x", label, got, want[label])
				}
				if err := tr.Validate(); err != nil {
					t.Errorf("%s: %v", label, err)
				}
			}
		}
	}
}
