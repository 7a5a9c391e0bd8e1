package index

import (
	"math/rand"
	"slices"
	"testing"
)

// TestHitSetMatchesSortCompact holds the hit set's words, expanded, to
// slices.Sort plus slices.Compact over batches on both sides of the sort cutoff and over
// the id shapes that steer it: dense ids, ids on one page, ids beyond
// 2³² clustered and spread, ids spread over more pages than the batch
// holds (the comparison-sort path), heavy duplication, and a negative id
// (also the comparison sort). One hit set is carried through all of them
// in shuffled size order, so its spine and free pages are met both
// smaller and larger than the batch, and the words are appended after a
// sentinel word holding the batch's first word index, which the batch
// must not extend.
func TestHitSetMatchesSortCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func() int64{
		"dense":              func() int64 { return rng.Int63n(600_000) },
		"one page":           func() int64 { return 0x12_3456_7000 | rng.Int63n(4096) },
		"one low byte":       func() int64 { return 0x12_3456_7800 | rng.Int63n(256) },
		"beyond 2^32":        func() int64 { return 1<<32 + rng.Int63n(1<<20) },
		"spread beyond 2^32": func() int64 { return 1<<32 + rng.Int63n(1<<34) },
		"high byte":          func() int64 { return rng.Int63n(4)<<40 | 0x55 },
		"full width":         func() int64 { return rng.Int63() },
		"duplicates":         func() int64 { return rng.Int63n(7) },
		"all equal":          func() int64 { return 424242 },
		"one negative":       nil, // dense, then one id negated
	}
	sizes := []int{0, 1, 2, hitSortCutoff - 1, hitSortCutoff, hitSortCutoff + 1, 700, 2000, 20000}
	var h hitSet
	for round := 0; round < 3; round++ {
		rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		for _, n := range sizes {
			for name, draw := range shapes {
				ids := make([]int64, n)
				for i := range ids {
					if draw != nil {
						ids[i] = draw()
					} else {
						ids[i] = rng.Int63n(600_000)
					}
				}
				if draw == nil && n > 0 {
					i := rng.Intn(n)
					ids[i] = -ids[i] - 1
				}
				want := slices.Clone(ids)
				slices.Sort(want)
				want = slices.Compact(want)
				sentinel := Word{W: -1, Bits: 1 << 63}
				if len(want) > 0 {
					sentinel.W = want[0] >> 6
				}
				words := h.words(ids, []Word{sentinel})
				if words[0] != sentinel {
					t.Fatalf("%s, n=%d: the sentinel word became %+v", name, n, words[0])
				}
				for i, w := range words[1:] {
					if w.Bits == 0 || (i > 0 && w.W <= words[i].W) {
						t.Fatalf("%s, n=%d: word %d %+v is empty or out of order", name, n, i, w)
					}
				}
				if got := AppendIDs(nil, words[1:]); !slices.Equal(got, want) {
					t.Fatalf("%s, n=%d, spine %d: words differ from sort+compact", name, n, len(h.spine))
				}
			}
		}
	}
}

// TestHitSetRetainsPages pins the steady state SearchInto's allocation
// gates rely on: once the hit set has ordered a batch into a retained
// word buffer, batches over as many pages order without allocating.
func TestHitSetRetainsPages(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ids := make([]int64, 3000)
	var h hitSet
	var out []Word
	fill := func() {
		for i := range ids {
			ids[i] = rng.Int63n(600_000)
		}
	}
	fill()
	out = h.words(ids, out[:0])
	if allocs := testing.AllocsPerRun(20, func() {
		fill()
		out = h.words(ids, out[:0])
		out = h.words(ids[:1000], out[:0])
	}); allocs != 0 {
		t.Fatalf("warm words allocates %.1f times per run, want 0", allocs)
	}
}
