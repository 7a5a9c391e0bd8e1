package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// buildSegment writes a segment of n sequential 16-byte records and
// returns its path and raw bytes.
func buildSegment(t testing.TB, n int, pageSize int, meta []byte) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.seg")
	spec := SegmentSpec{PageSize: pageSize, RecordSize: 16}
	err := WriteSegment(path, spec, func(a *SegmentAppender) ([]byte, error) {
		var rec [16]byte
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(rec[0:8], uint64(i))
			binary.LittleEndian.PutUint64(rec[8:16], uint64(i)*3+7)
			if err := a.Append(rec[:]); err != nil {
				return nil, err
			}
		}
		return meta, nil
	})
	if err != nil {
		t.Fatalf("WriteSegment: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestSegmentRoundTrip(t *testing.T) {
	const n, pageSize = 100, 64 // 4 records per page → 25 pages
	meta := []byte("city meta blob")
	path, _ := buildSegment(t, n, pageSize, meta)

	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatalf("OpenSegment: %v", err)
	}
	defer seg.Close()
	if seg.NumRecords() != n {
		t.Fatalf("NumRecords = %d, want %d", seg.NumRecords(), n)
	}
	if seg.NumPages() != 25 {
		t.Fatalf("NumPages = %d, want 25", seg.NumPages())
	}
	if seg.RecordsPerPage() != 4 || seg.RecordSize() != 16 || seg.PageSize() != pageSize {
		t.Fatalf("geometry = %d/%d/%d", seg.RecordsPerPage(), seg.RecordSize(), seg.PageSize())
	}
	if !bytes.Equal(seg.Meta(), meta) {
		t.Fatalf("Meta = %q, want %q", seg.Meta(), meta)
	}
	var buf []byte
	for page := 0; page < seg.NumPages(); page++ {
		buf, err = seg.ReadPage(page, buf)
		if err != nil {
			t.Fatalf("ReadPage(%d): %v", page, err)
		}
		for r := 0; r < seg.RecordsInPage(page); r++ {
			id := page*4 + r
			rec := buf[r*16:]
			if got := binary.LittleEndian.Uint64(rec[0:8]); got != uint64(id) {
				t.Fatalf("record %d field A = %d", id, got)
			}
			if got := binary.LittleEndian.Uint64(rec[8:16]); got != uint64(id)*3+7 {
				t.Fatalf("record %d field B = %d", id, got)
			}
		}
	}
}

func TestSegmentShortLastPage(t *testing.T) {
	// 10 records, 4 per page → 3 pages, last holds 2.
	path, _ := buildSegment(t, 10, 64, nil)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.NumPages() != 3 {
		t.Fatalf("NumPages = %d, want 3", seg.NumPages())
	}
	want := []int{4, 4, 2}
	for page, w := range want {
		if got := seg.RecordsInPage(page); got != w {
			t.Fatalf("RecordsInPage(%d) = %d, want %d", page, got, w)
		}
	}
	if seg.RecordsInPage(-1) != 0 || seg.RecordsInPage(3) != 0 {
		t.Fatal("out-of-range RecordsInPage should be 0")
	}
}

func TestSegmentEmpty(t *testing.T) {
	path, _ := buildSegment(t, 0, 64, []byte("m"))
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.NumRecords() != 0 || seg.NumPages() != 0 {
		t.Fatalf("empty segment: %d records / %d pages", seg.NumRecords(), seg.NumPages())
	}
	if _, err := seg.ReadPage(0, nil); err == nil {
		t.Fatal("ReadPage(0) on empty segment should fail")
	}
}

func TestSegmentRejectsCorruption(t *testing.T) {
	_, good := buildSegment(t, 40, 64, []byte("meta"))

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 5, segTrailerBytes, len(good) / 2, len(good) - segHeaderBytes} {
			if _, err := NewSegmentBytes(good[:len(good)-cut]); err == nil {
				t.Fatalf("truncation by %d bytes accepted", cut)
			}
		}
	})
	t.Run("extended", func(t *testing.T) {
		if _, err := NewSegmentBytes(append(append([]byte{}, good...), 0)); err == nil {
			t.Fatal("extended file accepted")
		}
	})
	t.Run("header-flip", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[0] ^= 0x40
		if _, err := NewSegmentBytes(bad); err == nil {
			t.Fatal("flipped magic accepted")
		}
	})
	t.Run("footer-flip", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[len(bad)-segTrailerBytes-3] ^= 1 // inside footer payload
		_, err := NewSegmentBytes(bad)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("footer flip: err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("page-flip", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[segHeaderBytes+10] ^= 0x80 // inside page 0
		seg, err := NewSegmentBytes(bad)
		if err != nil {
			t.Fatalf("open after page flip: %v (directory lives in the footer)", err)
		}
		if _, err := seg.ReadPage(0, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadPage on flipped page: err = %v, want ErrCorrupt", err)
		}
		// Other pages still read fine: damage is contained.
		if _, err := seg.ReadPage(1, nil); err != nil {
			t.Fatalf("ReadPage(1): %v", err)
		}
	})
}

func TestSegmentAppendWrongSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.seg")
	err := WriteSegment(path, SegmentSpec{PageSize: 64, RecordSize: 16}, func(a *SegmentAppender) ([]byte, error) {
		return nil, a.Append(make([]byte, 15))
	})
	if err == nil {
		t.Fatal("wrong-size record accepted")
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatal("failed write left a file behind")
	}
}

func TestSegmentSpecValidation(t *testing.T) {
	bad := []SegmentSpec{
		{PageSize: 64, RecordSize: 0},
		{PageSize: 64, RecordSize: -1},
		{PageSize: 8, RecordSize: 16},
		{PageSize: MaxSegmentPageSize + 1, RecordSize: 16},
	}
	for _, spec := range bad {
		err := WriteSegment(filepath.Join(t.TempDir(), "x.seg"), spec,
			func(a *SegmentAppender) ([]byte, error) { return nil, nil })
		if err == nil {
			t.Fatalf("spec %+v accepted", spec)
		}
	}
}

// firstField reads the first field of record i of a pinned page of
// buildSegment's records: the record's number.
func firstField(page []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(page[16*i:])
}

func TestPagerPinFaultHitEvict(t *testing.T) {
	path, _ := buildSegment(t, 40, 64, nil) // 10 pages, 4 records each
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	// Budget of 3 pages' record bytes (64 each).
	p := NewPager(seg, PagerConfig{CacheBytes: 192})

	// Fault in pages 0..2; all fit.
	for page := 0; page < 3; page++ {
		v, err := p.Pin(page)
		if err != nil {
			t.Fatalf("Pin(%d): %v", page, err)
		}
		if len(v) != 64 || firstField(v, 0) != uint64(page*4) || firstField(v, 3) != uint64(page*4+3) {
			t.Fatalf("page %d pins as %x", page, v)
		}
		p.Unpin(page)
	}
	st := p.Stats()
	if st.Faults != 3 || st.Hits != 0 || st.Evictions != 0 || st.PagesResident != 3 || st.ResidentBytes != 192 {
		t.Fatalf("after warm-up: %+v", st)
	}

	// Re-pin page 1: a hit.
	if _, err := p.Pin(1); err != nil {
		t.Fatal(err)
	}
	p.Unpin(1)
	if st = p.Stats(); st.Hits != 1 || st.Faults != 3 {
		t.Fatalf("after re-pin: %+v", st)
	}

	// Fault page 3: page 0 is coldest (LRU order 1, 2, 0 after the
	// re-pin of 1... actually MRU order is 1, 2, 0 → evict 0).
	if _, err := p.Pin(3); err != nil {
		t.Fatal(err)
	}
	p.Unpin(3)
	st = p.Stats()
	if st.Evictions != 1 || st.PagesResident != 3 || st.ResidentBytes != 192 {
		t.Fatalf("after overflow: %+v", st)
	}
	// Page 0 must re-fault; pages 1, 2, 3 must hit.
	before := p.Stats().Faults
	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	p.Unpin(0)
	if p.Stats().Faults != before+1 {
		t.Fatal("page 0 was not the eviction victim")
	}

	// Invariants.
	st = p.Stats()
	if st.Pins != st.Hits+st.Faults {
		t.Fatalf("Pins %d != Hits %d + Faults %d", st.Pins, st.Hits, st.Faults)
	}
	if st.PagesResident != st.Faults-st.Evictions {
		t.Fatalf("PagesResident %d != Faults %d - Evictions %d", st.PagesResident, st.Faults, st.Evictions)
	}
	if st.PagesPinned != 0 {
		t.Fatalf("PagesPinned = %d after all unpins", st.PagesPinned)
	}
}

func TestPagerPinnedPagesSurviveEviction(t *testing.T) {
	path, _ := buildSegment(t, 40, 64, nil)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	// Budget of ONE page; pin three and hold them.
	p := NewPager(seg, PagerConfig{CacheBytes: 64})
	for page := 0; page < 3; page++ {
		if _, err := p.Pin(page); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.PagesResident != 3 || st.PagesPinned != 3 || st.Evictions != 0 {
		t.Fatalf("pinned pages evicted: %+v", st)
	}
	if st.ResidentBytes <= st.CacheBytes {
		t.Fatalf("over-budget pinning should show ResidentBytes %d > CacheBytes %d",
			st.ResidentBytes, st.CacheBytes)
	}
	// Releasing shrinks back under budget.
	for page := 0; page < 3; page++ {
		p.Unpin(page)
	}
	st = p.Stats()
	if st.ResidentBytes > st.CacheBytes {
		t.Fatalf("after release: ResidentBytes %d > budget %d", st.ResidentBytes, st.CacheBytes)
	}
	if st.PagesPinned != 0 {
		t.Fatalf("PagesPinned = %d", st.PagesPinned)
	}
}

func TestPagerRefcounts(t *testing.T) {
	path, _ := buildSegment(t, 8, 64, nil)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	p := NewPager(seg, PagerConfig{CacheBytes: 1})
	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.PagesPinned != 1 {
		t.Fatalf("double pin: PagesPinned = %d, want 1", st.PagesPinned)
	}
	p.Unpin(0)
	// Still pinned by the second reference; budget 1 byte cannot evict it.
	if st := p.Stats(); st.PagesPinned != 1 || st.PagesResident != 1 {
		t.Fatalf("after first unpin: %+v", st)
	}
	p.Unpin(0)
	if st := p.Stats(); st.PagesPinned != 0 || st.PagesResident != 0 {
		t.Fatalf("after final unpin (1-byte budget): %+v", st)
	}

	// Unbalanced unpin panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unbalanced Unpin did not panic")
			}
		}()
		p.Unpin(0)
	}()
}

func TestPagerDebugPoison(t *testing.T) {
	path, _ := buildSegment(t, 8, 64, nil)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	p := NewPager(seg, PagerConfig{CacheBytes: 1 << 20, Debug: true})
	held, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	if firstField(held, 1) != 1 {
		t.Fatalf("page 0 pins as %x", held)
	}
	p.Unpin(0)
	if len(held) != 64 || !bytes.Equal(held, bytes.Repeat([]byte{0xFF}, 64)) {
		t.Fatalf("held page reads %x after its unpin: use-after-unpin would go unnoticed", held)
	}
	if st := p.Stats(); st.PagesResident != 0 || st.Evictions != 1 {
		t.Fatalf("debug unpin should evict immediately: %+v", st)
	}
}

func TestPagerBadPage(t *testing.T) {
	path, _ := buildSegment(t, 8, 64, nil)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	p := NewPager(seg, PagerConfig{})
	if _, err := p.Pin(-1); err == nil {
		t.Fatal("Pin(-1) accepted")
	}
	if _, err := p.Pin(2); err == nil {
		t.Fatal("Pin past end accepted")
	}
	if st := p.Stats(); st.Pins != 0 {
		t.Fatalf("failed pins counted: %+v", st)
	}
}

// FuzzSegment feeds arbitrary bytes to the segment opener and page
// reader: parsing must reject garbage with errors, never panic, and a
// valid file must round-trip.
func FuzzSegment(f *testing.F) {
	_, good := buildSegmentFuzzSeed(f)
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	flip := append([]byte{}, good...)
	flip[len(flip)/2] ^= 1
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := NewSegmentBytes(data)
		if err != nil {
			return
		}
		var buf []byte
		for page := 0; page < seg.NumPages(); page++ {
			if buf, err = seg.ReadPage(page, buf); err != nil {
				buf = nil // ReadPage may return nil on error
			}
			seg.RecordsInPage(page)
		}
		seg.Meta()
	})
}

// buildSegmentFuzzSeed mirrors buildSegment for *testing.F.
func buildSegmentFuzzSeed(f *testing.F) (string, []byte) {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.seg")
	err := WriteSegment(path, SegmentSpec{PageSize: 64, RecordSize: 16}, func(a *SegmentAppender) ([]byte, error) {
		var rec [16]byte
		for i := 0; i < 10; i++ {
			binary.LittleEndian.PutUint64(rec[0:8], uint64(i))
			if err := a.Append(rec[:]); err != nil {
				return nil, err
			}
		}
		return []byte("meta"), nil
	})
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return path, data
}
