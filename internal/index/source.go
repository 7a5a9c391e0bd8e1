package index

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/wavelet"
)

// CoefficientSource is the storage abstraction the access methods and the
// serving layers (retrieval, proto, engine) are written against. It is
// extracted from the in-memory Store so the coefficient slab can be
// swapped for other backings (disk/mmap segments, remote shards) without
// touching the index or server code.
//
// Identity contract: global coefficient ids are dense — every id in
// [0, NumCoeffs()) resolves through Coeff, and ID(c.Object, c.Vertex) == id
// for the coefficient Coeff(id) returns. Index builders rely on this to
// enumerate a source without knowing its layout.
//
// Concurrency contract: all methods must be safe for concurrent readers
// once the source is published (the Store satisfies this after
// construction plus any EnsureNeighbors call). A source's coefficients
// never change once it is built: the Store encodes their wire records
// in NewStore and a segment is written once.
type CoefficientSource interface {
	// ID returns the global id of a coefficient.
	ID(object, vertex int32) int64
	// Coeff resolves a global id to its coefficient.
	//
	// Pointer-lifetime contract: the in-memory Store hands out pointers
	// into always-resident slabs, which never move. An out-of-core
	// source (PagedStore) cannot: the moment its page is unpinned the
	// slab may be evicted and overwritten in place by another session's
	// fault, so its Coeff returns a private copy — correct for as long
	// as the caller likes, and one allocation per call. Callers that
	// read many coefficients — the index builders' scans, the retrieval
	// filter pass, the response encode (Pins.Record) — read through a
	// NewPins set instead, which allocates nothing and whose pointers
	// stay valid until its Release, whatever the source.
	//
	// Failure contract: a non-nil error means the coefficient is
	// temporarily unreadable (an out-of-core source lost the backing
	// page to a disk fault — errors.Is(err, ErrPageUnavailable));
	// serving layers degrade by withholding the coefficient, never by
	// crashing. Always-resident sources return a nil error forever.
	// Out-of-range ids are a caller bug, not a storage fault, and panic
	// with a descriptive message on every implementation.
	Coeff(id int64) (*wavelet.Coefficient, error)
	// NewPins returns an empty, reusable frame-scoped pin set over the
	// source (see Pins).
	NewPins() *Pins
	// Bounds returns the bounding box of all objects.
	Bounds() geom.Rect3
	// NumCoeffs returns the total coefficient count across all objects.
	NumCoeffs() int64
	// NumObjects returns the number of stored objects.
	NumObjects() int
	// BaseVerts returns the base-mesh vertex count shared by the objects
	// (0 for an empty source); the wire handshake announces it.
	BaseVerts() int
	// SizeBytes returns the total serialized payload of the source.
	SizeBytes() int64
	// scan calls fn with every readable coefficient in ascending id
	// order — the index builders' bulk read, in the order the STR bulk
	// loads expect — allocating nothing per coefficient; fn must not
	// keep the pointer. Coefficients on an unreadable page are skipped:
	// they stay unindexed (and therefore withheld) rather than aborting
	// the build, and the rest of the scene still serves.
	scan(fn func(id int64, c *wavelet.Coefficient))
}

// PinningSource is an alias of CoefficientSource, kept only because the
// end-to-end benchmark still names it; the next change to bench/ deletes
// it together with retrieval.Server.SetParallelism.
type PinningSource = CoefficientSource

// Both stores satisfy the one store contract; keep the compiler honest.
var (
	_ CoefficientSource = (*Store)(nil)
	_ CoefficientSource = (*PagedStore)(nil)
)

// Pins is a frame-scoped read handle on one source: every pointer its
// Coeff returns stays valid until Release, and not after. Over the
// resident Store it pins nothing — the slabs never move; over a
// PagedStore each page it touches stays resident until Release. Either
// way it remembers the last slab it resolved (an object's coefficients,
// or a page's records), so the ascending reads of a frame's filter pass
// and its payload encode — whose coarse-band ids share pages in the
// band-major layout — resolve almost every id with one range check.
// Record hands out a coefficient's wire record: a slice of the Store's
// wire array, or over a paged source the pinned coefficient encoded
// into the set's scratch. A Pins is reusable across frames (Release
// keeps its storage) but not safe for concurrent use; each session owns
// its own.
type Pins struct {
	// lo, hi and slab are the last object resolved over the resident
	// store: ids [lo, hi) are slab[id-lo]. The range stays empty over a
	// paged source, whose ids resolve through its slot table.
	lo, hi int64
	slab   []wavelet.Coefficient
	// store is the resident source (nil over a paged one); obj is the
	// object slab holds.
	store *Store
	obj   int
	// ps is the paged source (nil over a resident one); slots [slotLo,
	// slotHi) are slab[slot-slotLo], the page resolved last. pages lists
	// the pages this set pinned and slabs their decoded records.
	ps             *PagedStore
	slotLo, slotHi int64
	pages          []int32
	slabs          map[int32][]wavelet.Coefficient
	// rec is the scratch Record encodes a paged coefficient into.
	rec [wavelet.WireBytes]byte
}

// Coeff resolves a global id; the pointer is valid until Release. An
// unreadable page reports ErrPageUnavailable without disturbing the
// pages already pinned — the caller withholds that coefficient and
// carries on. Out-of-range ids panic, as on the source.
func (p *Pins) Coeff(id int64) (*wavelet.Coefficient, error) {
	if id >= p.lo && id < p.hi {
		return &p.slab[id-p.lo], nil
	}
	if p.ps != nil {
		return p.pinSlot(id)
	}
	p.seekObject(id)
	return &p.slab[id-p.lo], nil
}

// Record returns coefficient id's wire record (see wavelet.WireRecord),
// failing and panicking as Coeff does. Over the resident store it is a
// slice of the store's wire array, valid for as long as the caller
// likes; over a paged source the pinned coefficient is encoded into the
// set's scratch, valid until the next Record or Release. Either way the
// caller copies it, never writes it.
func (p *Pins) Record(id int64) ([]byte, error) {
	if s := p.store; s != nil {
		s.checkID(id)
		off := id * wavelet.WireBytes
		return s.wire[off : off+wavelet.WireBytes : off+wavelet.WireBytes], nil
	}
	c, err := p.pinSlot(id)
	if err != nil {
		return nil, err
	}
	w := c.Wire()
	return wavelet.AppendWire(p.rec[:0], &w), nil
}

// Run returns the wire records of ids [lo, hi) as one slice of the
// resident store's wire array, which holds consecutive ids side by side,
// valid and read-only as Record's slice is; a range past the store's
// ids panics. Over a paged source it returns false: records there are
// read one at a time through Record, which reports a page that is
// unreadable.
func (p *Pins) Run(lo, hi int64) ([]byte, bool) {
	if p.store == nil {
		return nil, false
	}
	return p.store.wire[lo*wavelet.WireBytes : hi*wavelet.WireBytes : hi*wavelet.WireBytes], true
}

// holds reports whether id resolves in the slab p resolved last, so a
// sequential reader can Release before moving on to the next page.
func (p *Pins) holds(id int64) bool {
	if p.ps == nil {
		return id >= p.lo && id < p.hi
	}
	slot := int64(p.ps.slots[id])
	return slot >= p.slotLo && slot < p.slotHi
}

// Release unpins every page this set touched and resets it for reuse.
// Over the resident store it does nothing: its slabs never move, so the
// remembered object stays valid.
func (p *Pins) Release() {
	if p.ps == nil {
		return
	}
	for _, page := range p.pages {
		p.ps.pager.Unpin(int(page))
		delete(p.slabs, page)
	}
	p.pages = p.pages[:0]
	p.slotLo, p.slotHi, p.slab = 0, 0, nil
}

// MustCoeff resolves a global id through src and panics if the
// coefficient is unreadable. For tests and benchmarks over sources
// known to be fully readable (in-memory stores, fault-free segments);
// serving code must handle the error and withhold instead.
func MustCoeff(src CoefficientSource, id int64) *wavelet.Coefficient {
	c, err := src.Coeff(id)
	if err != nil {
		panic(fmt.Sprintf("index: MustCoeff(%d): %v", id, err))
	}
	return c
}
