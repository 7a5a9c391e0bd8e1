package index

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestSortIDsMatchesSlicesSort holds sortIDs to slices.Sort over batches
// on both sides of the radix cutoff and over the id shapes that steer
// its passes: ids sharing every high byte, ids that differ only in a
// high byte, ids beyond 2³², heavy duplication, and a negative id (which
// must fall back to the comparison sort). One tmp buffer is carried
// through all of them in shuffled size order, so it is met both smaller
// and larger than the batch.
func TestSortIDsMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func() int64{
		"dense":        func() int64 { return rng.Int63n(600_000) },
		"one low byte": func() int64 { return 0x12_3456_7800 | rng.Int63n(256) },
		"high byte":    func() int64 { return rng.Int63n(4)<<40 | 0x55 },
		"beyond 2^32":  func() int64 { return 1<<32 + rng.Int63n(1<<34) },
		"full width":   func() int64 { return rng.Int63() },
		"duplicates":   func() int64 { return rng.Int63n(7) },
		"all equal":    func() int64 { return 424242 },
		"one negative": nil, // dense, then one id negated
	}
	sizes := []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 700, 2000, 20000}
	var tmp []int64
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
				sortIDs(ids, &tmp)
				if !slices.Equal(ids, want) {
					t.Fatalf("%s, n=%d, cap(tmp)=%d: sortIDs differs from slices.Sort", name, n, cap(tmp))
				}
			}
		}
	}
}

// TestSortIDsRetainsBuffer pins the steady state SearchInto's
// allocation gates rely on: once tmp has held a batch, batches up to
// that size sort without allocating.
func TestSortIDsRetainsBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ids := make([]int64, 3000)
	var tmp []int64
	fill := func() {
		for i := range ids {
			ids[i] = rng.Int63n(600_000)
		}
	}
	fill()
	sortIDs(ids, &tmp)
	if allocs := testing.AllocsPerRun(20, func() {
		fill()
		sortIDs(ids, &tmp)
		sortIDs(ids[:1000], &tmp)
	}); allocs != 0 {
		t.Fatalf("warm sortIDs allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkSortIDs sorts shuffled batches of the benchmark city's id
// range (594 432 coefficients: three radix passes) at a sub-cutoff size,
// walk.mem's raw hits per sub-query, and a wholesale window.
func BenchmarkSortIDs(b *testing.B) {
	for _, n := range []int{64, 2000, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src := make([]int64, n)
			for i := range src {
				src[i] = rng.Int63n(594_432)
			}
			ids := make([]int64, n)
			var tmp []int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(ids, src)
				sortIDs(ids, &tmp)
			}
		})
	}
}
