// Pager: a bounded cache of segment pages with pin/unpin reference
// counting.
//
// The pager is the residency policy for out-of-core payloads. Pin
// faults the page in (one positioned read + CRC check) if it is not
// resident, bumps its refcount, and returns the page's verified bytes;
// Unpin drops the refcount. Pinned pages are never evicted; unpinned
// resident pages sit on an LRU list and are evicted from the cold end
// whenever resident bytes exceed the budget. A page larger than the
// whole budget still faults in — the budget bounds the cache, not the
// ability to serve — so the resident high-water mark is budget plus at
// most the pinned working set.
//
// Lifetime of a page's bytes: they belong to the caller from Pin to the
// matching Unpin and not a moment longer. An evicted page's buffer goes
// on a free list and the next fault reads its page straight into it, so
// a fault in steady state allocates nothing page-sized — and a slice
// kept past its Unpin reads some other page's records. Whoever needs
// bytes for longer copies them out while pinned. Debug mode turns a
// violation into garbage instead: an unpin-to-zero evicts the page
// immediately and overwrites its bytes with 0xFF (a record of them
// reads as id −1 and NaN floats), so a stale slice fails loudly in
// tests; it never recycles.
package persist

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// DefaultPageCacheBytes is the pager budget when the config leaves it
// zero: 16 MiB.
const DefaultPageCacheBytes = 16 << 20

// DefaultRetryMax is how many times a faulting page read is retried
// when the config leaves RetryMax zero. Transient disk faults (a busy
// bus, a flipped bit on the wire) clear on re-read; three retries ride
// out bursts without stalling a frame behind a truly dead sector.
const DefaultRetryMax = 3

// DefaultRetryBackoff is the first retry's delay when the config leaves
// RetryBackoff zero, doubling on each subsequent retry.
const DefaultRetryBackoff = 200 * time.Microsecond

// PagerConfig configures a Pager.
type PagerConfig struct {
	// CacheBytes bounds the resident bytes (≤0 → DefaultPageCacheBytes),
	// counted as a page's records times the record size.
	CacheBytes int64
	// Debug evicts a page the moment its refcount reaches zero and
	// overwrites its bytes with 0xFF, catching use-after-unpin in tests.
	Debug bool
	// RetryMax bounds re-reads of a page whose read failed (0 →
	// DefaultRetryMax, negative → no retries). A read that still fails
	// with a CRC mismatch after the last retry is treated as permanent
	// corruption and quarantines the page; any other exhausted failure
	// is reported transient — the next Pin starts a fresh retry cycle.
	RetryMax int
	// RetryBackoff is the delay before the first retry, doubled on each
	// subsequent one (0 → DefaultRetryBackoff, negative → none). The
	// faulting Pin sleeps without the pager mutex, so only callers that
	// want the same page wait behind it; keep it small all the same — it
	// is a de-synchronizer, not a timeout.
	RetryBackoff time.Duration
	// Sleep replaces time.Sleep for retry backoff (tests). Nil uses
	// time.Sleep.
	Sleep func(time.Duration)
}

// PagerStats is a snapshot of pager counters and gauges. The counters
// satisfy, at any quiescent point:
//
//	Pins == Hits + Faults
//	PagesResident == Faults - Evictions
//	PagesPinned == 0 once every Pin has been matched by an Unpin
//
// A Pin that fails (fault error or quarantine) counts in neither Pins
// nor Faults — it never materialized — so the identities above survive
// disk faults unchanged; FaultErrors tallies those failures separately.
type PagerStats struct {
	Faults    int64 // Pin calls that read a page
	Hits      int64 // Pin calls satisfied by a resident page
	Evictions int64 // pages dropped from residency
	Pins      int64 // total successful Pin calls

	Retries     int64 // page re-reads after a transient read fault
	FaultErrors int64 // page reads that ultimately failed (incl. quarantine rejections)
	Quarantined int64 // pages quarantined by CRC-verified permanent corruption

	PagesResident int64 // pages currently resident
	PagesPinned   int64 // resident pages with refcount > 0
	ResidentBytes int64 // record bytes currently resident
	CacheBytes    int64 // configured budget
}

type pageSlot struct {
	// page is the page's verified records (the read buffer's head, cut
	// at the last record); nil while not resident.
	page []byte
	// loading is non-nil while one Pin reads the page with
	// the mutex released; it is closed when that Pin has finished, either
	// way. Other Pins of the same page wait on it and then look again.
	loading     chan struct{}
	refs        int32
	prev        int32 // LRU links among unpinned resident pages; -1 = none
	next        int32
	resident    bool
	quarantined bool // permanently corrupt: never retried, never cached
}

// Pager caches the pages of one Segment. All methods are safe for
// concurrent use. The mutex guards the bookkeeping only: a fault reads
// and verifies its page with the mutex released, so a session
// that faults does not park every other session's Pin and Unpin behind
// its disk read (each parked goroutine idles a thread, and waking one
// costs far more than the critical section it waited for). At most one
// read per page is in flight — a second Pin of a loading page waits for
// the first and then hits — so the counters stay exact.
type Pager struct {
	seg *Segment
	cfg PagerConfig

	mu      sync.Mutex
	slots   []pageSlot
	lruHead int32 // most recently unpinned
	lruTail int32 // eviction candidate
	// free are page buffers of evicted pages, waiting for a fault to
	// read into them. A fault takes one and, once the cache is full, its
	// install evicts one, so the list never needs more than the faults
	// that have been in flight at once (peakLoads; loads are in flight
	// now): whatever a burst of evictions adds beyond that is left to
	// the garbage collector.
	free      [][]byte
	loads     int
	peakLoads int

	faults      int64
	hits        int64
	evictions   int64
	pins        int64
	retries     int64
	faultErrors int64
	quarantineN int64
	residentB   int64
	residentP   int64
	pinnedP     int64
}

// NewPager builds a pager over an open segment.
func NewPager(seg *Segment, cfg PagerConfig) *Pager {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultPageCacheBytes
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = DefaultRetryMax
	} else if cfg.RetryMax < 0 {
		cfg.RetryMax = 0
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	} else if cfg.RetryBackoff < 0 {
		cfg.RetryBackoff = 0
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	p := &Pager{seg: seg, cfg: cfg, lruHead: -1, lruTail: -1}
	p.slots = make([]pageSlot, seg.NumPages())
	for i := range p.slots {
		p.slots[i].prev = -1
		p.slots[i].next = -1
	}
	return p
}

// Segment returns the underlying segment.
func (p *Pager) Segment() *Segment { return p.seg }

// Pin returns page's records — RecordsInPage(page) × RecordSize bytes,
// CRC-verified — faulting the page in if necessary, and holds them
// resident until the matching Unpin; the caller reads them and never
// writes them. A transient read fault is retried up to RetryMax times
// with doubling backoff; a CRC mismatch that survives every retry
// quarantines the page — it is never cached and never retried on the
// serving path, and every later Pin fails fast with the same corruption
// error until a Scrub observes the page reading clean again.
func (p *Pager) Pin(page int) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if page < 0 || page >= len(p.slots) {
		return nil, fmt.Errorf("persist: pager pin of page %d out of range [0, %d)", page, len(p.slots))
	}
	s := &p.slots[page]
	for {
		if s.quarantined {
			p.faultErrors++
			return nil, fmt.Errorf("persist: pager page %d is quarantined: %w", page, ErrCorrupt)
		}
		if s.resident {
			p.pins++
			p.hits++
			if s.refs == 0 {
				p.lruRemove(int32(page))
				p.pinnedP++
			}
			s.refs++
			return s.page, nil
		}
		if s.loading == nil {
			break
		}
		// Another Pin is reading this page: wait for it, then look again
		// (resident → hit; failed → this Pin starts its own retry cycle).
		done := s.loading
		p.mu.Unlock()
		<-done
		p.mu.Lock()
	}

	// This Pin is the page's one reader. The slot is neither resident nor
	// quarantined, so nothing else touches it until loading is cleared.
	done := make(chan struct{})
	s.loading = done
	var buf []byte
	if n := len(p.free); n > 0 {
		buf, p.free[n-1] = p.free[n-1], nil
		p.free = p.free[:n-1]
	}
	if p.loads++; p.loads > p.peakLoads {
		p.peakLoads = p.loads
	}
	p.mu.Unlock()
	if buf == nil {
		buf = make([]byte, p.seg.pageSize)
	}
	retries, err := p.readPageRetry(page, buf)
	p.mu.Lock()
	p.loads--
	s.loading = nil
	close(done)
	p.retries += retries
	switch {
	case err != nil:
		if errors.Is(err, ErrCorrupt) {
			p.quarantine(page)
		}
	case s.quarantined:
		// A Scrub condemned the page while this read was in flight.
		err = fmt.Errorf("persist: pager page %d is quarantined: %w", page, ErrCorrupt)
	}
	if err != nil {
		// The failed pin never materialized: it counts in neither Pins
		// nor Faults, and the buffer it read into goes back.
		p.faultErrors++
		p.recycle(buf)
		return nil, err
	}
	p.pins++
	p.faults++
	s.page = buf[:p.seg.RecordsInPage(page)*p.seg.recordSize]
	s.refs = 1
	s.resident = true
	p.residentB += int64(len(s.page))
	p.residentP++
	p.pinnedP++
	p.evictOver()
	return s.page, nil
}

// Unpin releases one Pin of page. In Debug mode a refcount reaching
// zero evicts the page and overwrites its bytes with 0xFF immediately.
func (p *Pager) Unpin(page int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if page < 0 || page >= len(p.slots) {
		panic(fmt.Sprintf("persist: pager unpin of page %d out of range [0, %d)", page, len(p.slots)))
	}
	s := &p.slots[page]
	if !s.resident || s.refs <= 0 {
		panic(fmt.Sprintf("persist: pager unpin of page %d without a matching pin", page))
	}
	s.refs--
	if s.refs > 0 {
		return
	}
	p.pinnedP--
	if p.cfg.Debug {
		p.evictPage(int32(page), true)
		return
	}
	p.lruPushFront(int32(page))
	p.evictOver()
}

// readPageRetry reads one page into the page-sized buf with bounded
// retry-with-backoff and reports how many re-reads it made. Every
// failure kind is retried except ErrSegmentClosed (a caller bug, not a
// disk fault): transient I/O errors and torn reads clear on re-read,
// and a CRC mismatch may have been a bit flipped in flight rather than
// on the platter. The caller inspects the final error to tell permanent
// corruption (still ErrCorrupt after the last retry) from an exhausted
// transient fault. It touches no pager state, so it needs no lock.
func (p *Pager) readPageRetry(page int, buf []byte) (retries int64, err error) {
	_, err = p.seg.ReadPage(page, buf)
	backoff := p.cfg.RetryBackoff
	for attempt := 0; err != nil && attempt < p.cfg.RetryMax; attempt++ {
		if errors.Is(err, ErrSegmentClosed) {
			break
		}
		retries++
		if backoff > 0 {
			p.cfg.Sleep(backoff)
			backoff *= 2
		}
		_, err = p.seg.ReadPage(page, buf)
	}
	return retries, err
}

// quarantine marks page permanently corrupt: its resident copy (if
// unpinned) is evicted, and every later Pin fails fast without touching
// the disk. Called with p.mu held.
func (p *Pager) quarantine(page int) {
	s := &p.slots[page]
	if s.quarantined {
		return
	}
	s.quarantined = true
	p.quarantineN++
	if s.resident && s.refs == 0 {
		p.evictPage(int32(page), false)
	}
}

// Scrub re-reads and CRC-verifies every page against the directory (the
// boot-time disk check behind cmd/server's -verify-pages). Pages whose
// corruption survives the retry cycle are quarantined with the same
// bookkeeping as a faulting Pin. Quarantined pages ARE re-read: the
// serving path never retries them, but a scrub is the explicit operator
// action after replacing a disk or remapping a sector, so a quarantined
// page that now passes its CRC has its quarantine lifted and re-enters
// normal paging. The returned error reports the first non-corruption
// read failure, if any (such a failure on a quarantined page keeps it
// quarantined). Scrub does not populate the cache and counts neither
// pins, hits, nor faults — retries and quarantines are counted as
// usual.
func (p *Pager) Scrub() ([]int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var bad []int
	var firstErr error
	buf := make([]byte, p.seg.pageSize)
	for page := range p.slots {
		retries, err := p.readPageRetry(page, buf)
		p.retries += retries
		if err != nil {
			p.faultErrors++
			if errors.Is(err, ErrCorrupt) {
				p.quarantine(page)
				bad = append(bad, page)
				continue
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("persist: scrub page %d: %w", page, err)
			}
			if p.slots[page].quarantined {
				// Unreadable, but not provably corrupt: stay quarantined
				// until a scrub sees clean bytes.
				bad = append(bad, page)
			}
			continue
		}
		if p.slots[page].quarantined {
			// The page reads clean again — lift the quarantine. The
			// Quarantined counter is cumulative (it tallies quarantine
			// events) and does not decrease.
			p.slots[page].quarantined = false
		}
	}
	return bad, firstErr
}

// Stats returns a snapshot of the pager counters and gauges.
func (p *Pager) Stats() PagerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PagerStats{
		Faults:        p.faults,
		Hits:          p.hits,
		Evictions:     p.evictions,
		Pins:          p.pins,
		Retries:       p.retries,
		FaultErrors:   p.faultErrors,
		Quarantined:   p.quarantineN,
		PagesResident: p.residentP,
		PagesPinned:   p.pinnedP,
		ResidentBytes: p.residentB,
		CacheBytes:    p.cfg.CacheBytes,
	}
}

// evictOver evicts cold unpinned pages until resident bytes fit the
// budget (or nothing evictable remains).
func (p *Pager) evictOver() {
	for p.residentB > p.cfg.CacheBytes && p.lruTail >= 0 {
		p.evictPage(p.lruTail, false)
	}
}

// evictPage drops one resident page. poison overwrites its bytes with
// 0xFF (Debug mode).
func (p *Pager) evictPage(page int32, poison bool) {
	s := &p.slots[page]
	if s.refs == 0 && !poison {
		p.lruRemove(page)
	}
	if poison {
		for i := range s.page {
			s.page[i] = 0xFF
		}
	}
	p.recycle(s.page)
	p.residentB -= int64(len(s.page))
	p.residentP--
	p.evictions++
	s.page = nil
	s.resident = false
}

// recycle offers a page buffer nothing refers to any more to the free
// list. Debug mode poisons evicted pages and must never hand one out
// again. Called with p.mu held.
func (p *Pager) recycle(buf []byte) {
	if buf == nil || p.cfg.Debug || len(p.free) >= p.peakLoads {
		return
	}
	p.free = append(p.free, buf[:p.seg.pageSize])
}

// lruPushFront makes page the most-recently-used unpinned page.
func (p *Pager) lruPushFront(page int32) {
	s := &p.slots[page]
	s.prev = -1
	s.next = p.lruHead
	if p.lruHead >= 0 {
		p.slots[p.lruHead].prev = page
	}
	p.lruHead = page
	if p.lruTail < 0 {
		p.lruTail = page
	}
}

// lruRemove unlinks page from the LRU list.
func (p *Pager) lruRemove(page int32) {
	s := &p.slots[page]
	if s.prev >= 0 {
		p.slots[s.prev].next = s.next
	} else if p.lruHead == page {
		p.lruHead = s.next
	}
	if s.next >= 0 {
		p.slots[s.next].prev = s.prev
	} else if p.lruTail == page {
		p.lruTail = s.prev
	}
	s.prev = -1
	s.next = -1
}
