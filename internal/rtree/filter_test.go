package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// survivorMasks derives filterNode's answer from the survivor walk: it
// runs searchSurvivors over a two-level arena whose root holds blk's n
// entries, each over a leaf of its own. An entry the walk queues
// intersects q but does not lie inside it; one whose run it emits
// (payload i ≥ 0, where the leaves' payloads are negative) does both.
// in is therefore known on hit entries only.
func survivorMasks(blk []float64, slots, dims, n int, q *Rect) (hit, in uint64) {
	stride := 2 * dims * slots
	a := &arena{
		dims:   dims,
		all:    make([]int32, slots),
		bounds: make([]float64, (1+n)*stride),
		nodes:  make([]arenaNode, 1+n),
		runs:   make([]arenaRun, 1+n),
		leaf0:  1,
		data:   make([]int64, 2*n),
	}
	for i := range a.all {
		a.all[i] = int32(i)
	}
	copy(a.bounds, blk)
	a.nodes[0] = arenaNode{first: 1, n: int32(n)}
	for i := 0; i < n; i++ {
		a.nodes[1+i] = arenaNode{first: int32(n + i), n: 1}
		a.runs[1+i] = arenaRun{lo: int32(i), hi: int32(i + 1), nodes: 1}
		a.data[i], a.data[n+i] = int64(i), -1-int64(i)
	}
	var cur Cursor
	buf, _ := a.searchSurvivors(q, &cur, nil)
	for _, ni := range cur.idx[1:] {
		hit |= 1 << (ni - 1)
	}
	for _, id := range buf {
		if id >= 0 {
			hit |= 1 << id
			in |= 1 << id
		}
	}
	return hit, in
}

// nodeValues is the pool a random node block draws its bounds from:
// the IEEE special values and a few finite ones, so that equal bounds,
// point entries, touching boxes and NaN compares are all common.
func nodeValues(extra ...float64) []float64 {
	return append([]float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1),
		-1, 1, 2, 3, 0.5, math.SmallestNonzeroFloat64, math.MaxFloat64}, extra...)
}

// randomNode fills a node block of slots × dims with draws from pool:
// n entries, most with lo ≤ hi, some points, some unordered, and every
// slot past n (and the row padding) filled too, which the kernel must
// ignore. q is drawn from the same pool, inverted about half the time.
func randomNode(rng *rand.Rand, pool []float64, slots, dims int) ([]float64, Rect) {
	pick := func() float64 { return pool[rng.Intn(len(pool))] }
	blk := make([]float64, 2*dims*slots)
	for j := 0; j < slots; j++ {
		for d := 0; d < dims; d++ {
			lo, hi := pick(), pick()
			switch rng.Intn(4) {
			case 0:
				hi = lo // a point in d
			case 1, 2:
				if hi < lo {
					lo, hi = hi, lo
				}
			}
			blk[d*slots+j], blk[(dims+d)*slots+j] = lo, hi
		}
	}
	var q Rect
	for d := 0; d < dims; d++ {
		q.Lo[d], q.Hi[d] = pick(), pick()
	}
	return blk, q
}

// checkFilterNode compares the kernel with survivorMasks for every
// entry count 0–slots of one block.
func checkFilterNode(t *testing.T, blk []float64, slots, dims int, q *Rect, label string) {
	t.Helper()
	for n := 0; n <= slots; n++ {
		hit, in := filterNode(blk, slots, dims, n, q)
		wantHit, wantIn := survivorMasks(blk, slots, dims, n, q)
		if hit != wantHit || hit&in != wantIn {
			t.Fatalf("%s n=%d q=%v: kernel hit %#x in %#x, survivor walk hit %#x in %#x",
				label, n, *q, hit, hit&in, wantHit, wantIn)
		}
	}
}

// TestFilterNodeMatchesPortable holds the AVX2 kernel to the survivor
// walk's filter, bit for bit, over random blocks of every padded row
// width a tree can have at 1–4 dimensions.
func TestFilterNodeMatchesPortable(t *testing.T) {
	if !useKernel {
		t.Skip("no AVX2 kernel in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(11))
	pool := nodeValues()
	for _, slots := range []int{4, 8, 20, 64} {
		for dims := 1; dims <= MaxDims; dims++ {
			for round := 0; round < 60; round++ {
				blk, q := randomNode(rng, pool, slots, dims)
				checkFilterNode(t, blk, slots, dims, &q, fmt.Sprintf("slots=%d dims=%d round %d", slots, dims, round))
			}
		}
	}
}

// FuzzFilterNode is TestFilterNodeMatchesPortable over fuzzed blocks:
// the seed draws them, shape picks the row width (4–64) and dims (1–4),
// and a and b join the pool of bound values.
func FuzzFilterNode(f *testing.F) {
	f.Add(int64(1), uint8(0x13), 0.25, -7.0)
	f.Add(int64(2), uint8(0xf0), math.NaN(), math.Inf(1))
	f.Add(int64(3), uint8(0x42), 1e-300, 1e300)
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, a, b float64) {
		if !useKernel {
			t.Skip("no AVX2 kernel in this build or on this CPU")
		}
		slots, dims := 4*(1+int(shape>>4)), 1+int(shape&3)
		rng := rand.New(rand.NewSource(seed))
		blk, q := randomNode(rng, nodeValues(a, b), slots, dims)
		checkFilterNode(t, blk, slots, dims, &q, fmt.Sprintf("slots=%d dims=%d", slots, dims))
	})
}
