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
			// Boxes on a small integer lattice: most centres tie with
			// many others in every dimension.
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
			label := fmt.Sprintf("%dD n=%d", dims, n)
			if got := rtree.ArenaDigest(rtree.BulkLoad(rtree.DefaultConfig(dims), items)); got != want[label] {
				t.Errorf("%s: arena digest %#x, want %#x", label, got, want[label])
			}
		}
	}
}
