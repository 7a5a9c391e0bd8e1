package persist

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// flakyReader fails or corrupts reads at chosen offsets with exact
// counts — the precise-control sibling of the faultdisk package, which
// covers the randomized schedules.
type flakyReader struct {
	r io.ReaderAt

	mu      sync.Mutex
	fails   map[int64]int // offset → remaining injected failures
	corrupt map[int64]bool
	reads   int
}

var errFlaky = errors.New("flaky: injected read error")

func (f *flakyReader) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.reads++
	if f.fails[off] > 0 {
		f.fails[off]--
		f.mu.Unlock()
		return 0, errFlaky
	}
	bad := f.corrupt[off]
	f.mu.Unlock()
	n, err := f.r.ReadAt(p, off)
	if bad && n > 0 {
		p[0] ^= 0xFF
	}
	return n, err
}

func (f *flakyReader) readCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
}

// faultPager builds a 10-page segment behind a flakyReader plus a pager
// with no real backoff sleeps.
func faultPager(t *testing.T, retryMax int) (*Pager, *flakyReader, *Segment) {
	t.Helper()
	path, data := buildSegment(t, 40, 64, nil) // 10 pages, 4 records each
	_ = path
	fr := &flakyReader{r: bytesReaderAt(data), fails: map[int64]int{}, corrupt: map[int64]bool{}}
	seg, err := NewSegment(fr, int64(len(data)))
	if err != nil {
		t.Fatalf("NewSegment: %v", err)
	}
	p := NewPager(seg, PagerConfig{
		CacheBytes: 1 << 20,
		RetryMax:   retryMax,
		Sleep:      func(time.Duration) {},
	})
	return p, fr, seg
}

func bytesReaderAt(data []byte) io.ReaderAt { return readerAtFunc(data) }

type readerAtFunc []byte

func (r readerAtFunc) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(r)) {
		return 0, io.EOF
	}
	n := copy(p, r[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func TestPagerRetriesTransientFault(t *testing.T) {
	p, fr, seg := faultPager(t, 3)
	fr.fails[seg.PageOffset(3)] = 2 // first attempt + one retry fail, second retry succeeds
	if _, err := p.Pin(3); err != nil {
		t.Fatalf("Pin(3) after transient faults: %v", err)
	}
	p.Unpin(3)
	st := p.Stats()
	if st.Retries != 2 || st.FaultErrors != 0 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want 2 retries, 0 fault errors, 0 quarantined", st)
	}
	if st.Pins != 1 || st.Faults != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 pin = 1 fault", st)
	}
}

func TestPagerTransientExhaustionIsNotQuarantine(t *testing.T) {
	p, fr, seg := faultPager(t, 2)
	fr.fails[seg.PageOffset(5)] = 3 // initial + 2 retries all fail
	_, err := p.Pin(5)
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Pin(5) = %v, want a transient (non-corrupt) failure", err)
	}
	st := p.Stats()
	if st.Retries != 2 || st.FaultErrors != 1 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want 2 retries, 1 fault error, 0 quarantined", st)
	}
	if st.Pins != 0 || st.Faults != 0 || st.PagesResident != 0 || st.ResidentBytes != 0 {
		t.Fatalf("failed pin counted or left resident: %+v", st)
	}
	// The fault was transient: the next Pin starts fresh and succeeds.
	if _, err := p.Pin(5); err != nil {
		t.Fatalf("Pin(5) after faults cleared: %v", err)
	}
	p.Unpin(5)
	st = p.Stats()
	if st.Pins != 1 || st.Pins != st.Hits+st.Faults {
		t.Fatalf("identities broken after retry cycle: %+v", st)
	}
}

func TestPagerQuarantinesPermanentCorruption(t *testing.T) {
	p, fr, seg := faultPager(t, 2)
	fr.corrupt[seg.PageOffset(4)] = true
	_, err := p.Pin(4)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Pin(4) = %v, want ErrCorrupt", err)
	}
	st := p.Stats()
	if st.Quarantined != 1 || st.FaultErrors != 1 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want 1 quarantined, 1 fault error, 2 retries", st)
	}
	// Quarantined: the next Pin fails fast without touching the disk.
	before := fr.readCount()
	_, err = p.Pin(4)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("second Pin(4) = %v, want ErrCorrupt", err)
	}
	if fr.readCount() != before {
		t.Fatal("quarantined pin read the disk")
	}
	st = p.Stats()
	if st.FaultErrors != 2 || st.Quarantined != 1 || st.Retries != 2 {
		t.Fatalf("stats after fast-fail = %+v", st)
	}
	// Healthy pages are unaffected, and the identities still hold.
	for _, page := range []int{0, 3, 9} {
		if _, err := p.Pin(page); err != nil {
			t.Fatalf("Pin(%d): %v", page, err)
		}
		p.Unpin(page)
	}
	st = p.Stats()
	if st.Pins != st.Hits+st.Faults || st.PagesResident != st.Faults-st.Evictions || st.PagesPinned != 0 {
		t.Fatalf("identities broken: %+v", st)
	}
}

func TestPagerScrub(t *testing.T) {
	p, fr, seg := faultPager(t, 1)
	fr.corrupt[seg.PageOffset(7)] = true
	fr.fails[seg.PageOffset(2)] = 1 // one transient blip the scrub retries through
	bad, err := p.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(bad) != 1 || bad[0] != 7 {
		t.Fatalf("Scrub = %v, want [7]", bad)
	}
	st := p.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined", st)
	}
	if st.Pins != 0 || st.Hits != 0 || st.Faults != 0 {
		t.Fatalf("scrub leaked into pin accounting: %+v", st)
	}
	if st.Retries < 2 { // ≥1 for the blip on page 2, ≥1 for page 7's CRC retry
		t.Fatalf("stats = %+v, want ≥2 retries", st)
	}
	// A second scrub re-reads the quarantined page (scrub is the heal
	// path); still corrupt, it stays quarantined: 9 healthy single reads
	// plus 1 + retryMax attempts on page 7.
	before := fr.readCount()
	bad, err = p.Scrub()
	if err != nil || len(bad) != 1 || bad[0] != 7 {
		t.Fatalf("second Scrub = %v, %v", bad, err)
	}
	if got := fr.readCount() - before; got != 9+2 {
		t.Fatalf("second scrub did %d reads, want 11 (9 healthy + 2 attempts on the corrupt page)", got)
	}
	if _, err := p.Pin(7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Pin(7) after scrub = %v, want ErrCorrupt", err)
	}
}

// TestPagerScrubHealsQuarantine covers the recovery path: once the
// corruption is repaired (sector remapped, disk replaced), a scrub sees
// the page read clean, lifts the quarantine, and normal paging resumes.
// The serving path alone never un-quarantines — Pins keep failing fast
// until the scrub runs.
func TestPagerScrubHealsQuarantine(t *testing.T) {
	p, fr, seg := faultPager(t, 1)
	fr.corrupt[seg.PageOffset(4)] = true
	if _, err := p.Pin(4); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Pin(4) = %v, want ErrCorrupt", err)
	}

	// Repair the disk. Pin still fails fast: quarantine outlives the
	// fault until a scrub re-verifies the page.
	fr.mu.Lock()
	fr.corrupt[seg.PageOffset(4)] = false
	fr.mu.Unlock()
	if _, err := p.Pin(4); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Pin(4) before scrub = %v, want quarantine fast-fail", err)
	}

	bad, err := p.Scrub()
	if err != nil || len(bad) != 0 {
		t.Fatalf("post-repair Scrub = %v, %v, want clean", bad, err)
	}
	if _, err := p.Pin(4); err != nil {
		t.Fatalf("Pin(4) after healing scrub: %v", err)
	}
	p.Unpin(4)
	st := p.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1 (cumulative events, not a gauge)", st.Quarantined)
	}
	if st.Pins != st.Hits+st.Faults || st.PagesPinned != 0 {
		t.Fatalf("identities broken after heal: %+v", st)
	}
}

func TestPagerScrubReportsTransientExhaustion(t *testing.T) {
	p, fr, seg := faultPager(t, 1)
	fr.fails[seg.PageOffset(6)] = 10 // outlives the retry budget
	bad, err := p.Scrub()
	if err == nil {
		t.Fatal("Scrub swallowed a persistent transient failure")
	}
	if len(bad) != 0 {
		t.Fatalf("Scrub = %v, want no quarantines for non-corrupt failures", bad)
	}
	if st := p.Stats(); st.Quarantined != 0 || st.FaultErrors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSegmentCloseIdempotent(t *testing.T) {
	path, _ := buildSegment(t, 8, 64, nil)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatalf("OpenSegment: %v", err)
	}
	if err := seg.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := seg.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := seg.ReadPage(0, nil); !errors.Is(err, ErrSegmentClosed) {
		t.Fatalf("ReadPage after Close = %v, want ErrSegmentClosed", err)
	}
}

func TestSegmentPageOffset(t *testing.T) {
	path, data := buildSegment(t, 40, 64, []byte("m"))
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for page := 0; page < seg.NumPages(); page++ {
		off := seg.PageOffset(page)
		buf, err := seg.ReadPage(page, nil)
		if err != nil {
			t.Fatalf("ReadPage(%d): %v", page, err)
		}
		for i := range buf {
			if buf[i] != data[off+int64(i)] {
				t.Fatalf("page %d: PageOffset %d does not address the page bytes", page, off)
			}
		}
	}
}

// gateReader counts reads per page offset and can hold every read at a
// gate, so a test can observe what the pager does while a fault is in
// flight.
type gateReader struct {
	r    io.ReaderAt
	gate chan struct{} // nil: reads pass straight through

	mu       sync.Mutex
	inFlight map[int64]int
	maxSame  int // most reads of one offset in flight at once
	reads    int
}

func (g *gateReader) ReadAt(p []byte, off int64) (int, error) {
	g.mu.Lock()
	g.reads++
	g.inFlight[off]++
	if g.inFlight[off] > g.maxSame {
		g.maxSame = g.inFlight[off]
	}
	g.mu.Unlock()
	if g.gate != nil {
		<-g.gate
	}
	n, err := g.r.ReadAt(p, off)
	g.mu.Lock()
	g.inFlight[off]--
	g.mu.Unlock()
	return n, err
}

func gatePager(t *testing.T, cacheBytes int64, gate chan struct{}) (*Pager, *gateReader) {
	t.Helper()
	_, data := buildSegment(t, 40, 64, nil) // 10 pages, 4 records each
	gr := &gateReader{r: bytesReaderAt(data), inFlight: map[int64]int{}}
	seg, err := NewSegment(gr, int64(len(data)))
	if err != nil {
		t.Fatalf("NewSegment: %v", err)
	}
	gr.reads = 0 // NewSegment's header and footer reads
	gr.gate = gate
	return NewPager(seg, PagerConfig{CacheBytes: cacheBytes}), gr
}

// A fault must not hold the pager mutex across its read: while page 0's
// read is stuck at the gate, Pin and Unpin of a resident page and Stats
// all still complete, and a second Pin of page 0 waits for the first
// instead of reading again.
func TestPagerFaultDoesNotBlockOtherPages(t *testing.T) {
	gate := make(chan struct{}, 1)
	p, gr := gatePager(t, 1<<20, gate)
	gate <- struct{}{} // let page 1 through
	if _, err := p.Pin(1); err != nil {
		t.Fatal(err)
	}
	p.Unpin(1)

	first, second := make(chan error, 1), make(chan error, 1)
	go func() { _, err := p.Pin(0); first <- err }()
	for gr.readCount() < 2 {
		time.Sleep(time.Millisecond)
	}
	go func() { _, err := p.Pin(0); second <- err }()

	// Page 0's read is parked at the gate; the rest of the pager is not.
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < 100; i++ {
			if _, err := p.Pin(1); err != nil {
				t.Errorf("Pin(1) during page 0's fault: %v", err)
			}
			p.Unpin(1)
			p.Stats()
		}
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("Pin/Unpin of a resident page blocked behind another page's read")
	}

	gate <- struct{}{}
	for _, ch := range []chan error{first, second} {
		if err := <-ch; err != nil {
			t.Fatalf("Pin(0): %v", err)
		}
	}
	p.Unpin(0)
	p.Unpin(0)
	st := p.Stats()
	if st.Faults != 2 || st.Hits != 101 || st.Pins != 103 || st.PagesPinned != 0 {
		t.Fatalf("stats %+v: want 2 faults (pages 1 and 0), 101 hits, 103 pins, nothing pinned", st)
	}
	if got := gr.readCount(); got != 2 {
		t.Fatalf("%d page reads, want 2: the second Pin(0) must wait, not read", got)
	}
}

func (g *gateReader) readCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reads
}

// Many goroutines pinning over a cache of three pages: the counter
// identities hold, every read was a counted fault, and no page was ever
// read twice at once.
func TestPagerConcurrentFaultsReconcile(t *testing.T) {
	p, gr := gatePager(t, 192, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := uint32(g*2654435761 + 1)
			for i := 0; i < 2000; i++ {
				x = x*1664525 + 1013904223
				page := int(x>>16) % 10
				v, err := p.Pin(page)
				if err != nil {
					t.Errorf("Pin(%d): %v", page, err)
					return
				}
				if got := firstField(v, 0); got != uint64(page*4) {
					t.Errorf("page %d pinned with first record %d", page, got)
				}
				p.Unpin(page)
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Pins != 8*2000 || st.Pins != st.Hits+st.Faults {
		t.Fatalf("pins %d, hits %d, faults %d: want pins = hits + faults = 16000", st.Pins, st.Hits, st.Faults)
	}
	if st.PagesResident != st.Faults-st.Evictions || st.PagesPinned != 0 || st.ResidentBytes > 192 {
		t.Fatalf("stats %+v: want resident = faults - evictions, nothing pinned, within budget", st)
	}
	if int64(gr.readCount()) != st.Faults {
		t.Fatalf("%d page reads for %d faults", gr.readCount(), st.Faults)
	}
	if gr.maxSame > 1 {
		t.Fatalf("a page was read %d times at once", gr.maxSame)
	}
}
