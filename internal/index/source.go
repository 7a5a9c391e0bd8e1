package index

import (
	"fmt"
	"slices"

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
	// source (PagedStore) keeps only page bytes, which may be evicted and
	// overwritten by another session's fault the moment they are
	// unpinned, so its Coeff returns a private copy — correct for as
	// long as the caller likes, and one allocation per call. Callers
	// that read many coefficients — the retrieval filter pass (Pins.Pos),
	// the response encode (Pins.AppendRecords) — read through a NewPins set
	// instead, which allocates nothing.
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

// PinningSource is an alias of CoefficientSource, kept only for bench/
// (DESIGN §17 lists every such name).
type PinningSource = CoefficientSource

// Both stores satisfy the one store contract; keep the compiler honest.
var (
	_ CoefficientSource = (*Store)(nil)
	_ CoefficientSource = (*PagedStore)(nil)
)

// Pins is a frame-scoped read handle on one source. Over the resident
// Store it pins nothing — the slabs never move; over a PagedStore each
// page it touches stays resident until Release, and every read decodes
// what it needs from the page's 128 B segment records. Either way it
// remembers the last slab it resolved (an object's coefficients, or a
// page's records), so the ascending reads of a frame's filter pass and
// its payload encode — whose coarse-band ids share pages in the
// band-major layout — resolve almost every id with one range check. A
// Pins is reusable across frames (Release keeps its storage) but not
// safe for concurrent use; each session owns its own.
type Pins struct {
	// lo, hi and slab are the last object resolved over the resident
	// store: ids [lo, hi) are slab[id-lo].
	lo, hi int64
	slab   []wavelet.Coefficient
	// store is the resident source (nil over a paged one); obj is the
	// object slab holds.
	store *Store
	obj   int
	// ps is the paged source (nil over a resident one); slots [slotLo,
	// slotHi) are the records of page, the page resolved last. pinned
	// lists the pages this set pinned and pages their records.
	ps             *PagedStore
	slotLo, slotHi int64
	page           []byte
	pinned         []int32
	pages          map[int32][]byte
	coeff          wavelet.Coefficient // Coeff's scratch
}

// Coeff resolves a global id: the resident store's own pointer, or a
// paged record decoded into the set's scratch, valid until the next
// Coeff or Release. An unreadable page reports ErrPageUnavailable
// without disturbing the pages already pinned — the caller withholds
// that coefficient and carries on. Out-of-range ids panic.
func (p *Pins) Coeff(id int64) (*wavelet.Coefficient, error) {
	if p.ps == nil {
		return p.resident(id), nil
	}
	rec, err := p.record(id)
	if err != nil {
		return nil, err
	}
	decodeCoeffRecord(rec, &p.coeff)
	return &p.coeff, nil
}

// Pos returns coefficient id's fitted position — all the merge filter
// and BlockBytes read — failing and panicking as Coeff does; over a
// paged source it decodes that field alone.
func (p *Pins) Pos(id int64) (geom.Vec3, error) {
	if p.ps == nil {
		return p.resident(id).Pos, nil
	}
	rec, err := p.record(id)
	if err != nil {
		return geom.Vec3{}, err
	}
	return getVec3(rec[56:80]), nil
}

// AppendRecords appends the wire records (see wavelet.WireRecord) of
// ids to dst and reports how many it appended. Over the resident store
// each run of consecutive ids is one copy out of its wire array, which
// holds consecutive ids side by side; over a paged source each record
// is converted straight from its segment record (putWireRecord). n <
// len(ids) comes with the error of ids[n], whose page is unreadable:
// the caller withholds that id and goes on from the next. An id out of
// range panics.
func (p *Pins) AppendRecords(dst []byte, ids []int64) (out []byte, n int, err error) {
	if s := p.store; s != nil {
		for i := 0; i < len(ids); {
			j := i + 1
			for j < len(ids) && ids[j] == ids[j-1]+1 {
				j++
			}
			lo, hi := ids[i], ids[j-1]+1
			s.checkID(lo) // a run past the last id fails the slice bound
			dst = append(dst, s.wire[lo*wavelet.WireBytes:hi*wavelet.WireBytes]...)
			i = j
		}
		return dst, len(ids), nil
	}
	dst = slices.Grow(dst, len(ids)*wavelet.WireBytes)
	for i, id := range ids {
		rec, err := p.record(id)
		if err != nil {
			return dst, i, err
		}
		end := len(dst) + wavelet.WireBytes
		putWireRecord(dst[len(dst):end], rec)
		dst = dst[:end]
	}
	return dst, len(ids), nil
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
	for _, page := range p.pinned {
		p.ps.pager.Unpin(int(page))
		delete(p.pages, page)
	}
	p.pinned = p.pinned[:0]
	p.slotLo, p.slotHi, p.page = 0, 0, nil
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
