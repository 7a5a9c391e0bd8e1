package persist

import (
	"path/filepath"
	"testing"
)

// TestPagerFaultRecyclesDecodedValue pins the steady fault→evict→fault
// cycle: with a one-page budget every Pin of another page faults and
// evicts, each fault decodes into the slice the last eviction gave up,
// and the only thing left to allocate is the fault's loading channel.
func TestPagerFaultRecyclesDecodedValue(t *testing.T) {
	path, _ := buildSegment(t, 40, 64, nil) // 10 pages, 4 records each
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	offered := 0
	p := NewPager(seg, PagerConfig{CacheBytes: 32, Decode: func(raw []byte, records int, reuse any) (any, int64, error) {
		if reuse != nil {
			offered++
		}
		return decodeU64Page(raw, records, reuse)
	}})
	page := 0
	cycle := func() {
		page = (page + 1) % 10
		v, err := p.Pin(page)
		if err != nil {
			t.Fatal(err)
		}
		if vals := v.([]uint64); len(vals) != 4 || vals[0] != uint64(page*4) || vals[3] != uint64(page*4+3) {
			t.Fatalf("page %d decoded into a recycled slice as %v", page, vals)
		}
		p.Unpin(page)
	}
	cycle()
	cycle() // the first eviction: from here on every fault has a slice to reuse
	before := p.Stats()
	allocs := testing.AllocsPerRun(200, cycle)
	st := p.Stats()
	if faults := st.Faults - before.Faults; faults != 201 || st.Evictions-before.Evictions != faults {
		t.Fatalf("201 cycles made %d faults and %d evictions", faults, st.Evictions-before.Evictions)
	}
	if offered < 201 {
		t.Fatalf("Decode was offered a value to reuse on %d of 203 faults", offered)
	}
	if allocs > 1 {
		t.Fatalf("a steady-state fault allocates %.1f times, want 1 (its loading channel)", allocs)
	}
	if st.PagesResident != 1 || st.PagesPinned != 0 || st.Pins != st.Hits+st.Faults {
		t.Fatalf("counters after the cycle: %+v", st)
	}
}

// TestPagerFreeListBounded: a burst of evictions may not park more
// decoded values than faults can be in flight at once (here: one).
func TestPagerFreeListBounded(t *testing.T) {
	path, _ := buildSegment(t, 40, 64, nil)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	p := NewPager(seg, PagerConfig{CacheBytes: 32, Decode: decodeU64Page})
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
	if len(p.free) != 1 || p.nReadBufs != 1 {
		t.Fatalf("free list holds %d values with %d read buffers ever made, want 1 and 1", len(p.free), p.nReadBufs)
	}
}

// TestPagerDebugNeverRecycles: Debug mode poisons what it evicts, so
// handing it to a later Decode would resurrect it.
func TestPagerDebugNeverRecycles(t *testing.T) {
	path, _ := buildSegment(t, 40, 64, nil)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	poisoned := 0
	p := NewPager(seg, PagerConfig{
		CacheBytes: 32,
		Debug:      true,
		Poison:     func(any) { poisoned++ },
		Decode: func(raw []byte, records int, reuse any) (any, int64, error) {
			if reuse != nil {
				t.Errorf("Debug pager offered Decode a value to reuse")
			}
			return decodeU64Page(raw, records, reuse)
		},
	})
	for i := 0; i < 20; i++ {
		if _, err := p.Pin(i % 10); err != nil {
			t.Fatal(err)
		}
		p.Unpin(i % 10)
	}
	if poisoned != 20 || len(p.free) != 0 {
		t.Fatalf("20 debug unpins poisoned %d values and parked %d", poisoned, len(p.free))
	}
}

// BenchmarkPagerPin times the pager's two outcomes on 64 KB pages of
// 128-byte records: a Pin/Unpin of a resident page, and a Pin that reads,
// verifies and decodes a page while evicting another.
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
	// The decoded value is the page's bytes, so a fault costs what the
	// pager itself costs: pread, CRC and one page-sized copy.
	decode := func(raw []byte, records int, reuse any) (any, int64, error) {
		out, _ := reuse.([]byte)
		if len(out) != len(raw) {
			out = make([]byte, len(raw))
			reuse = out
		}
		copy(out, raw)
		return reuse, int64(len(raw)), nil
	}
	b.Run("hit", func(b *testing.B) {
		p := NewPager(seg, PagerConfig{CacheBytes: 8 * pageSize, Decode: decode})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Pin(i % 8); err != nil {
				b.Fatal(err)
			}
			p.Unpin(i % 8)
		}
	})
	b.Run("fault", func(b *testing.B) {
		p := NewPager(seg, PagerConfig{CacheBytes: 8 * pageSize, Decode: decode})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Pin(i % pages); err != nil {
				b.Fatal(err)
			}
			p.Unpin(i % pages)
		}
	})
}
