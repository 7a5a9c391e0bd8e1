package index

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/rtree"
	"repro/internal/wavelet"
)

// TestPagedCoeffConcurrentEviction: a pager of one page evicts on every
// fault and reads the next page into the buffer it just gave up, so a
// coefficient decoded after its page's unpin would be overwritten —
// under -race, reported — by the next reader's fault. Coeff decodes a
// copy while pinned, and every reader sees every coefficient intact.
func TestPagedCoeffConcurrentEviction(t *testing.T) {
	mem, ps := buildPagedPair(t, PagedConfig{CacheBytes: 512}) // one 4-record page
	total := ps.NumCoeffs()
	const readers = 8
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int64) {
			defer wg.Done()
			// Coprime strides, so readers are on different pages at once.
			stride := 2*r + 3
			held := make([]*wavelet.Coefficient, 0, 64)
			for i := int64(0); i < 400; i++ {
				id := (r + i*stride) % total
				c, err := ps.Coeff(id)
				if err != nil {
					t.Errorf("Coeff(%d): %v", id, err)
					return
				}
				held = append(held, c)
				if len(held) == cap(held) {
					// Checked late, after the page has long been evicted.
					for _, h := range held {
						if *h != *MustCoeff(mem, mem.ID(h.Object, h.Vertex)) {
							t.Errorf("coefficient (%d, %d) changed after its read: %+v", h.Object, h.Vertex, *h)
							return
						}
					}
					held = held[:0]
				}
			}
		}(int64(r))
	}
	wg.Wait()
	st := ps.PagerStats()
	if st.Evictions == 0 || st.PagesPinned != 0 || st.Pins != st.Hits+st.Faults {
		t.Fatalf("pager after the readers: %+v", st)
	}
}

// TestBuildReadsPagedSourceThroughPins: the index builders scan a paging
// source one pinned page at a time — a Pin per page, not per coefficient
// — and build the same index as over the in-memory store.
func TestBuildReadsPagedSourceThroughPins(t *testing.T) {
	mem, ps := buildPagedPair(t, PagedConfig{CacheBytes: 512})
	pages := int64(ps.Segment().NumPages())
	for name, build := range map[string]func(CoefficientSource) Index{
		"sharded":      func(src CoefficientSource) Index { return NewSharded(src, XYW, ShardedConfig{Shards: 4}) },
		"motion-aware": func(src CoefficientSource) Index { return NewMotionAware(src, XYW, rtree.Config{}) },
	} {
		before := ps.PagerStats()
		got, want := build(ps), build(mem)
		st := ps.PagerStats()
		if pins := st.Pins - before.Pins; pins != pages || st.PagesPinned != 0 {
			t.Fatalf("%s: build made %d pins over %d pages and left %d pinned", name, pins, pages, st.PagesPinned)
		}
		q := Query{Region: mem.Bounds().XY(), ZMin: mem.Bounds().Min.Z, ZMax: mem.Bounds().Max.Z, WMin: 0, WMax: 1}
		gi, gio := got.Search(q)
		wi, wio := want.Search(q)
		if len(gi) != len(wi) || gio != wio || int64(len(gi)) != mem.NumCoeffs() {
			t.Fatalf("%s: paged build finds %d ids in %d reads, in-memory %d in %d", name, len(gi), gio, len(wi), wio)
		}
	}
}

// BenchmarkPagedFault is one coefficient-page fault as the serving path
// pays it: 64 KB pages of 512 records, a cache of 8 pages walked round-
// robin over 64, so every Pin reads and verifies a page and evicts
// another, and the one coefficient read decodes its record. B/op is the
// page-sized memory a fault allocates.
func BenchmarkPagedFault(b *testing.B) {
	mem := NewStore(testObjectsAt(b, 36, 4)) // 36 936 coefficients: 72 pages
	path := filepath.Join(b.TempDir(), "bench.seg")
	if err := BuildSegment(path, mem, 2, 64<<10); err != nil {
		b.Fatal(err)
	}
	ps, err := OpenPaged(path, PagedConfig{CacheBytes: 8 * 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer ps.Close()
	pages := int64(ps.Segment().NumPages()) - 1 // leave the short last page out
	if pages < 64 {
		b.Fatalf("segment has %d full pages, want at least 64", pages)
	}
	ids := make([]int64, pages) // one coefficient on each full page
	for p := range ids {
		ids[p] = firstIDOn(ps, p)
	}
	pins := ps.NewPins()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pins.Coeff(ids[int64(i)%pages]); err != nil {
			b.Fatal(err)
		}
		pins.Release()
	}
	b.StopTimer()
	if st := ps.PagerStats(); st.Faults < int64(b.N) {
		b.Fatalf("%d faults in %d pins: the walk is not faulting", st.Faults, b.N)
	}
}
