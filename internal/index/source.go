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
	// filter pass, the proto payload encoder — type-assert the source to
	// PinningSource and read through a Pins set instead, which allocates
	// nothing and whose pointers stay valid until its Release.
	//
	// Failure contract: a non-nil error means the coefficient is
	// temporarily unreadable (an out-of-core source lost the backing
	// page to a disk fault — errors.Is(err, ErrPageUnavailable));
	// serving layers degrade by withholding the coefficient, never by
	// crashing. Always-resident sources return a nil error forever.
	// Out-of-range ids are a caller bug, not a storage fault, and panic
	// with a descriptive message on every implementation.
	Coeff(id int64) (*wavelet.Coefficient, error)
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

// PinningSource is a CoefficientSource whose coefficients live on
// evictable pages, whose memory is reused for other pages once evicted.
// Its Coeff copies; callers that read coefficients in bulk — a build
// scan, a frame's filter pass or payload encode — read them through a
// Pins set, which keeps every touched page resident and its pointers
// valid until Release, and not after. The in-memory Store intentionally
// does NOT implement this: serving layers detect paging with a type
// assertion and keep the zero-allocation fast path when it fails.
type PinningSource interface {
	CoefficientSource
	// NewPins returns an empty, reusable frame-scoped pin set.
	NewPins() *Pins
}

// Store implements CoefficientSource; keep the compiler honest.
var _ CoefficientSource = (*Store)(nil)

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
