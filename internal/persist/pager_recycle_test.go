package persist

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestPagerFaultRecyclesDecodedValue pins the steady fault→evict→fault
// cycle: with a one-page budget every Pin of another page faults and
// evicts, each fault reads into the buffer the last eviction gave up
// (two buffers take turns), and the only thing left to allocate is the
// fault's loading channel.
func TestPagerFaultRecyclesDecodedValue(t *testing.T) {
	path, _ := buildSegment(t, 40, 64, nil) // 10 pages, 4 records each
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	p := NewPager(seg, PagerConfig{CacheBytes: 64})
	page := 0
	buffers := map[*byte]bool{}
	cycle := func() {
		page = (page + 1) % 10
		v, err := p.Pin(page)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != 64 || firstField(v, 0) != uint64(page*4) || firstField(v, 3) != uint64(page*4+3) {
			t.Fatalf("page %d read into a recycled buffer as %x", page, v)
		}
		buffers[&v[0]] = true
		p.Unpin(page)
	}
	cycle()
	cycle() // the first eviction: from here on every fault has a buffer to reuse
	before := p.Stats()
	allocs := testing.AllocsPerRun(200, cycle)
	st := p.Stats()
	if faults := st.Faults - before.Faults; faults != 201 || st.Evictions-before.Evictions != faults {
		t.Fatalf("201 cycles made %d faults and %d evictions", faults, st.Evictions-before.Evictions)
	}
	if len(buffers) != 2 {
		t.Fatalf("203 faults read into %d buffers, want 2", len(buffers))
	}
	if allocs > 1 {
		t.Fatalf("a steady-state fault allocates %.1f times, want 1 (its loading channel)", allocs)
	}
	if st.PagesResident != 1 || st.PagesPinned != 0 || st.Pins != st.Hits+st.Faults {
		t.Fatalf("counters after the cycle: %+v", st)
	}
}

// TestPagerFreeListBounded: a burst of evictions may not park more
// page buffers than faults have been in flight at once (here: one).
func TestPagerFreeListBounded(t *testing.T) {
	path, _ := buildSegment(t, 40, 64, nil)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	p := NewPager(seg, PagerConfig{CacheBytes: 64})
	for page := 0; page < 6; page++ {
		if _, err := p.Pin(page); err != nil {
			t.Fatal(err)
		}
	}
	for page := 0; page < 6; page++ {
		p.Unpin(page) // over budget: five of the six are evicted here
	}
	if st := p.Stats(); st.Evictions != 5 || st.PagesResident != 1 {
		t.Fatalf("burst unpin: %+v", st)
	}
	if len(p.free) != 1 || p.peakLoads != 1 {
		t.Fatalf("free list holds %d buffers after at most %d faults in flight, want 1 and 1", len(p.free), p.peakLoads)
	}
}

// TestPagerDebugNeverRecycles: Debug mode poisons what it evicts, so
// reading a later fault into it would resurrect a stale page: every
// pin reads its own records into a buffer no earlier pin had, and
// every held page reads 0xFF once unpinned.
func TestPagerDebugNeverRecycles(t *testing.T) {
	path, _ := buildSegment(t, 40, 64, nil)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	p := NewPager(seg, PagerConfig{CacheBytes: 64, Debug: true})
	var held [][]byte
	for i := 0; i < 20; i++ {
		v, err := p.Pin(i % 10)
		if err != nil {
			t.Fatal(err)
		}
		if firstField(v, 0) != uint64(i%10*4) {
			t.Fatalf("pin %d of page %d reads %x", i, i%10, v)
		}
		held = append(held, v)
		p.Unpin(i % 10)
	}
	poison := bytes.Repeat([]byte{0xFF}, 64)
	buffers := map[*byte]bool{}
	for i, v := range held {
		if !bytes.Equal(v, poison) {
			t.Fatalf("pin %d still reads %x after its unpin", i, v)
		}
		buffers[&v[0]] = true
	}
	if len(buffers) != 20 || len(p.free) != 0 {
		t.Fatalf("20 debug pins read into %d buffers and parked %d", len(buffers), len(p.free))
	}
}

// BenchmarkPagerPin times the pager's two outcomes on 64 KB pages of
// 128-byte records: a Pin/Unpin of a resident page, and a Pin that reads
// and verifies a page while evicting another.
func BenchmarkPagerPin(b *testing.B) {
	const pageSize, recordSize, pages = 64 << 10, 128, 64
	path := filepath.Join(b.TempDir(), "bench.seg")
	err := WriteSegment(path, SegmentSpec{PageSize: pageSize, RecordSize: recordSize}, func(a *SegmentAppender) ([]byte, error) {
		rec := make([]byte, recordSize)
		for i := 0; i < pages*pageSize/recordSize; i++ {
			rec[0], rec[1] = byte(i), byte(i>>8)
			if err := a.Append(rec); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		b.Fatal(err)
	}
	defer seg.Close()
	b.Run("hit", func(b *testing.B) {
		p := NewPager(seg, PagerConfig{CacheBytes: 8 * pageSize})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Pin(i % 8); err != nil {
				b.Fatal(err)
			}
			p.Unpin(i % 8)
		}
	})
	b.Run("fault", func(b *testing.B) {
		p := NewPager(seg, PagerConfig{CacheBytes: 8 * pageSize})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Pin(i % pages); err != nil {
				b.Fatal(err)
			}
			p.Unpin(i % pages)
		}
	})
}
