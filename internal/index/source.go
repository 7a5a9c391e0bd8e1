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
// construction plus any EnsureNeighbors call). Mutating a source's
// coefficients is only legal under the owning index's write exclusion
// (delete from the index, mutate, re-insert).
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
	// filter pass, the proto payload encode — read through a NewPins set
	// instead, which allocates nothing and whose pointers stay valid
	// until its Release, whatever the source.
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
	// Neighbors returns the final-mesh neighbor vertex ids of one
	// coefficient (the naive index's "additional information").
	Neighbors(object, vertex int32) []int32
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
// or a page's records), so the ascending reads of a build scan, a
// frame's filter pass and its payload encode resolve almost every id
// with one range check. A Pins is reusable across frames (Release keeps
// its storage) but not safe for concurrent use; each session owns its
// own.
type Pins struct {
	// lo, hi and slab are the last slab resolved: ids [lo, hi) are
	// slab[id-lo]. An empty range makes the first read resolve.
	lo, hi int64
	slab   []wavelet.Coefficient
	// store is the resident source (nil over a paged one); obj is the
	// object slab holds.
	store *Store
	obj   int
	// ps is the paged source (nil over a resident one); pages lists the
	// pages this set pinned and slabs their decoded records.
	ps    *PagedStore
	pages []int32
	slabs map[int32][]wavelet.Coefficient
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
		return p.pinPage(id)
	}
	p.seekObject(id)
	return &p.slab[id-p.lo], nil
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
	p.lo, p.hi, p.slab = 0, 0, nil
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

// scanCoeffs calls fn with every readable coefficient of src in id
// order — the index builders' bulk read — through a pin set released
// each time the scan leaves its slab, so over a paging source the scan
// holds one page at a time and allocates nothing per coefficient; fn
// must not keep the pointer. Coefficients on an unreadable page are
// skipped: they stay unindexed (and therefore withheld) rather than
// aborting the build, and the rest of the scene still serves.
func scanCoeffs(src CoefficientSource, fn func(id int64, c *wavelet.Coefficient)) {
	pins := src.NewPins()
	defer pins.Release()
	for id, total := int64(0), src.NumCoeffs(); id < total; id++ {
		if id >= pins.hi {
			pins.Release()
		}
		if c, err := pins.Coeff(id); err == nil {
			fn(id, c)
		}
	}
}
