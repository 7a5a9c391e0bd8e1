// PagedStore: the out-of-core CoefficientSource.
//
// Coefficient payloads live in a persist segment file — fixed 128-byte
// records packed into CRC'd pages — and only the page-cache working
// set, the offset table, and the footer metadata stay resident. The
// index (R*-trees over support MBBs) is built by streaming the segment
// once and remains fully resident; queries touch payload pages only
// when a frame actually reads coefficients (filtering and encoding).
//
// The record encoding is full-fidelity: every float64 of the in-memory
// wavelet.Coefficient round-trips exactly, so a paged scene serves
// byte-identical responses to the in-memory Store over the same
// dataset. (The 48-byte wire encoding narrows Pos/Value to float32 at
// the protocol layer for both stores alike.)
package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/persist"
	"repro/internal/wavelet"
)

// ErrPageUnavailable reports that a coefficient's backing page could
// not be read — a transient I/O fault that exhausted the pager's
// retries, or CRC-verified permanent corruption that quarantined the
// page. It flows out of Coeff and Pins.Coeff through the CoefficientSource
// failure contract; serving layers respond by withholding the affected
// coefficients (ABR Dropped semantics), never by panicking, so frames
// that touch only healthy pages are unaffected and withheld
// coefficients are re-delivered once the page heals.
var ErrPageUnavailable = errors.New("index: coefficient page unavailable")

// pageUnavailable wraps a pager failure for one page, preserving both
// the ErrPageUnavailable sentinel and the underlying cause (which keeps
// persist.ErrCorrupt visible through errors.Is for quarantined pages).
func pageUnavailable(page int32, err error) error {
	return fmt.Errorf("%w: page %d: %w", ErrPageUnavailable, page, err)
}

// CoeffRecordSize is the fixed serialized size of one coefficient in a
// segment file: ids/level/parent (24B), value (8B), delta (24B), pos
// (24B), support box (48B).
const CoeffRecordSize = 128

// AppendCoeffRecord serializes one coefficient in segment-record form.
func AppendCoeffRecord(dst []byte, c *wavelet.Coefficient) []byte {
	var rec [CoeffRecordSize]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(c.Object))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(c.Vertex))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(int32(c.Level)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(c.Parent.A))
	binary.LittleEndian.PutUint32(rec[16:20], uint32(c.Parent.B))
	// rec[20:24] reserved, zero
	binary.LittleEndian.PutUint64(rec[24:32], math.Float64bits(c.Value))
	putVec3(rec[32:56], c.Delta)
	putVec3(rec[56:80], c.Pos)
	putVec3(rec[80:104], c.Support.Min)
	putVec3(rec[104:128], c.Support.Max)
	return append(dst, rec[:]...)
}

// decodeCoeffRecord is the inverse of AppendCoeffRecord.
func decodeCoeffRecord(rec []byte, c *wavelet.Coefficient) {
	c.Object = int32(binary.LittleEndian.Uint32(rec[0:4]))
	c.Vertex = int32(binary.LittleEndian.Uint32(rec[4:8]))
	c.Level = int8(int32(binary.LittleEndian.Uint32(rec[8:12])))
	c.Parent.A = int32(binary.LittleEndian.Uint32(rec[12:16]))
	c.Parent.B = int32(binary.LittleEndian.Uint32(rec[16:20]))
	c.Value = math.Float64frombits(binary.LittleEndian.Uint64(rec[24:32]))
	c.Delta = getVec3(rec[32:56])
	c.Pos = getVec3(rec[56:80])
	c.Support.Min = getVec3(rec[80:104])
	c.Support.Max = getVec3(rec[104:128])
}

func putVec3(dst []byte, v geom.Vec3) {
	binary.LittleEndian.PutUint64(dst[0:8], math.Float64bits(v.X))
	binary.LittleEndian.PutUint64(dst[8:16], math.Float64bits(v.Y))
	binary.LittleEndian.PutUint64(dst[16:24], math.Float64bits(v.Z))
}

func getVec3(src []byte) geom.Vec3 {
	return geom.Vec3{
		X: math.Float64frombits(binary.LittleEndian.Uint64(src[0:8])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(src[8:16])),
		Z: math.Float64frombits(binary.LittleEndian.Uint64(src[16:24])),
	}
}

const (
	// segMetaMagic identifies a coefficient-segment meta blob ("MACO").
	segMetaMagic   = uint32(0x4F43414D)
	segMetaVersion = uint32(1)
	segMetaFixed   = 24 + 48 // six u32 + bounds (6 × f64)
)

// EncodeSegmentMeta builds the footer meta blob for a coefficient
// segment: scene shape (levels, base verts), the exact dataset bounds
// (stored verbatim so a paged scene's handshake space is float-identical
// to the in-memory store's), and the per-object id offset table.
func EncodeSegmentMeta(levels, baseVerts int, bounds geom.Rect3, offsets []int64) []byte {
	meta := make([]byte, 0, segMetaFixed+8*len(offsets))
	meta = binary.LittleEndian.AppendUint32(meta, segMetaMagic)
	meta = binary.LittleEndian.AppendUint32(meta, segMetaVersion)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(levels))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(baseVerts))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(offsets)))
	meta = binary.LittleEndian.AppendUint32(meta, 0) // reserved
	for _, v := range [6]float64{bounds.Min.X, bounds.Min.Y, bounds.Min.Z,
		bounds.Max.X, bounds.Max.Y, bounds.Max.Z} {
		meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(v))
	}
	for _, off := range offsets {
		meta = binary.LittleEndian.AppendUint64(meta, uint64(off))
	}
	return meta
}

// decodeSegmentMeta parses and validates a coefficient-segment meta
// blob against the segment's record count.
func decodeSegmentMeta(meta []byte, total int64) (levels, baseVerts int, bounds geom.Rect3, offsets []int64, err error) {
	if len(meta) < segMetaFixed {
		return 0, 0, bounds, nil, fmt.Errorf("index: segment meta of %d bytes is too short", len(meta))
	}
	if m := binary.LittleEndian.Uint32(meta[0:4]); m != segMetaMagic {
		return 0, 0, bounds, nil, fmt.Errorf("index: bad segment meta magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(meta[4:8]); v != segMetaVersion {
		return 0, 0, bounds, nil, fmt.Errorf("index: unsupported segment meta version %d", v)
	}
	levels = int(binary.LittleEndian.Uint32(meta[8:12]))
	baseVerts = int(binary.LittleEndian.Uint32(meta[12:16]))
	numObjects := int64(binary.LittleEndian.Uint32(meta[16:20]))
	if int64(len(meta)) != segMetaFixed+8*numObjects {
		return 0, 0, bounds, nil, fmt.Errorf("index: segment meta claims %d objects in %d bytes", numObjects, len(meta))
	}
	f := func(off int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(meta[24+8*off:]))
	}
	bounds = geom.Rect3{
		Min: geom.Vec3{X: f(0), Y: f(1), Z: f(2)},
		Max: geom.Vec3{X: f(3), Y: f(4), Z: f(5)},
	}
	offsets = make([]int64, numObjects)
	prev := int64(0)
	for i := range offsets {
		offsets[i] = int64(binary.LittleEndian.Uint64(meta[segMetaFixed+8*i:]))
		if offsets[i] < prev || offsets[i] > total {
			return 0, 0, bounds, nil, fmt.Errorf("index: segment offset table not monotone at object %d", i)
		}
		prev = offsets[i]
	}
	if numObjects > 0 && offsets[0] != 0 {
		return 0, 0, bounds, nil, fmt.Errorf("index: segment offset table starts at %d, want 0", offsets[0])
	}
	if numObjects == 0 && total != 0 {
		return 0, 0, bounds, nil, fmt.Errorf("index: segment has %d coefficients but no objects", total)
	}
	return levels, baseVerts, bounds, offsets, nil
}

// BuildSegment streams an in-memory source into a segment file at
// path (atomically). levels is the subdivision depth to record for the
// scene handshake; pageSize 0 uses the persist default.
func BuildSegment(path string, src CoefficientSource, levels, pageSize int) error {
	spec := persist.SegmentSpec{PageSize: pageSize, RecordSize: CoeffRecordSize}
	return persist.WriteSegment(path, spec, func(a *persist.SegmentAppender) ([]byte, error) {
		offsets := make([]int64, src.NumObjects())
		for i := range offsets {
			offsets[i] = src.ID(int32(i), 0)
		}
		total := src.NumCoeffs()
		var rec []byte
		for id := int64(0); id < total; id++ {
			c, err := src.Coeff(id)
			if err != nil {
				return nil, fmt.Errorf("index: segment build at id %d: %w", id, err)
			}
			rec = AppendCoeffRecord(rec[:0], c)
			if err := a.Append(rec); err != nil {
				return nil, err
			}
		}
		return EncodeSegmentMeta(levels, src.BaseVerts(), src.Bounds(), offsets), nil
	})
}

// PagedConfig configures a PagedStore.
type PagedConfig struct {
	// CacheBytes bounds resident decoded payload bytes, accounted in
	// serialized record bytes (≤0 → persist.DefaultPageCacheBytes).
	CacheBytes int64
	// Debug evicts and poisons pages on unpin-to-zero, so any coefficient
	// pointer read through a pin set after its Release fails loudly (NaN
	// values, object id -1) instead of silently serving another page's
	// data.
	Debug bool
	// RetryMax bounds the pager's re-reads after a transient page-read
	// fault (0 → persist.DefaultRetryMax, negative → none).
	RetryMax int
	// RetryBackoff is the pager's first-retry delay, doubling per retry
	// (0 → persist.DefaultRetryBackoff, negative → none).
	RetryBackoff time.Duration
}

// PagedStore serves coefficients from a paged segment file. Only the
// offset table, footer metadata, and the bounded page cache are
// resident. Serving layers that hold coefficients across a frame read
// through NewPins.
type PagedStore struct {
	seg     *persist.Segment
	pager   *persist.Pager
	offsets []int64
	total   int64
	perPage int64
	levels  int
	base    int
	bounds  geom.Rect3
}

// OpenPaged opens a coefficient segment file as a PagedStore.
func OpenPaged(path string, cfg PagedConfig) (*PagedStore, error) {
	seg, err := persist.OpenSegment(path)
	if err != nil {
		return nil, err
	}
	ps, err := newPaged(seg, cfg)
	if err != nil {
		seg.Close()
		return nil, fmt.Errorf("index: segment %s: %w", path, err)
	}
	return ps, nil
}

// NewPagedSegment wraps an already-open segment — typically one layered
// over a fault-injecting or otherwise custom io.ReaderAt — as a
// PagedStore. The store takes ownership: its Close closes the segment.
func NewPagedSegment(seg *persist.Segment, cfg PagedConfig) (*PagedStore, error) {
	return newPaged(seg, cfg)
}

func newPaged(seg *persist.Segment, cfg PagedConfig) (*PagedStore, error) {
	if seg.RecordSize() != CoeffRecordSize {
		return nil, fmt.Errorf("index: segment record size %d, want %d", seg.RecordSize(), CoeffRecordSize)
	}
	levels, base, bounds, offsets, err := decodeSegmentMeta(seg.Meta(), seg.NumRecords())
	if err != nil {
		return nil, err
	}
	ps := &PagedStore{
		seg:     seg,
		offsets: offsets,
		total:   seg.NumRecords(),
		perPage: int64(seg.RecordsPerPage()),
		levels:  levels,
		base:    base,
		bounds:  bounds,
	}
	ps.pager = persist.NewPager(seg, persist.PagerConfig{
		CacheBytes:   cfg.CacheBytes,
		Debug:        cfg.Debug,
		RetryMax:     cfg.RetryMax,
		RetryBackoff: cfg.RetryBackoff,
		Decode: func(raw []byte, records int, reuse any) (any, int64, error) {
			// decodeCoeffRecord assigns every field, so an evicted page's
			// slab of the same length is overwritten in place and handed
			// back as the interface value it came in (boxing a fresh slice
			// header would allocate); only the segment's short last page
			// ever mismatches.
			slab, _ := reuse.([]wavelet.Coefficient)
			if len(slab) != records {
				slab = make([]wavelet.Coefficient, records)
				reuse = slab
			}
			for i := range slab {
				decodeCoeffRecord(raw[i*CoeffRecordSize:(i+1)*CoeffRecordSize], &slab[i])
			}
			return reuse, int64(records) * CoeffRecordSize, nil
		},
		Poison: func(decoded any) {
			slab := decoded.([]wavelet.Coefficient)
			nan := math.NaN()
			for i := range slab {
				slab[i] = wavelet.Coefficient{
					Object: -1, Vertex: -1, Level: -1,
					Parent: mesh.Edge{A: -1, B: -1},
					Value:  nan,
					Delta:  geom.Vec3{X: nan, Y: nan, Z: nan},
					Pos:    geom.Vec3{X: nan, Y: nan, Z: nan},
				}
			}
		},
	})
	return ps, nil
}

// Close releases the underlying segment file. The store must be
// quiescent: no in-flight Coeff calls or live pins.
func (ps *PagedStore) Close() error { return ps.seg.Close() }

// Levels returns the subdivision depth recorded when the segment was
// built; the scene handshake announces it.
func (ps *PagedStore) Levels() int { return ps.levels }

// PagerStats returns a snapshot of the store's paging counters.
func (ps *PagedStore) PagerStats() persist.PagerStats { return ps.pager.Stats() }

// Segment exposes the underlying segment (geometry and page addressing;
// fault harnesses use PageOffset to target one page).
func (ps *PagedStore) Segment() *persist.Segment { return ps.seg }

// VerifyPages scrubs every page against the segment's CRC directory,
// quarantining pages whose corruption survives the pager's retry cycle
// — the same bookkeeping a faulting Coeff uses. It returns the sorted
// list of quarantined pages and the first non-corruption read failure,
// if any (cmd/server's -verify-pages runs this at boot).
func (ps *PagedStore) VerifyPages() ([]int, error) { return ps.pager.Scrub() }

// NumObjects returns the number of stored objects.
func (ps *PagedStore) NumObjects() int { return len(ps.offsets) }

// BaseVerts returns the shared base-mesh vertex count from the segment
// metadata.
func (ps *PagedStore) BaseVerts() int { return ps.base }

// NumCoeffs returns the total coefficient count.
func (ps *PagedStore) NumCoeffs() int64 { return ps.total }

// SizeBytes returns the total serialized payload, in the same wire
// accounting the in-memory Store uses.
func (ps *PagedStore) SizeBytes() int64 { return ps.total * wavelet.WireBytes }

// Bounds returns the dataset bounding box recorded at build time
// (float-identical to the source store's Bounds).
func (ps *PagedStore) Bounds() geom.Rect3 { return ps.bounds }

// ID returns the global id of a coefficient.
func (ps *PagedStore) ID(object, vertex int32) int64 {
	return ps.offsets[object] + int64(vertex)
}

// Neighbors is unsupported: a paged store does not retain final meshes,
// so the naive index (the only Neighbors consumer) cannot run over it.
func (ps *PagedStore) Neighbors(object, vertex int32) []int32 {
	panic("index: PagedStore does not retain final meshes; the naive index needs an in-memory Store")
}

// checkID panics descriptively on an out-of-range id (same contract as
// Store.objectOf).
func (ps *PagedStore) checkID(id int64) {
	if id < 0 || id >= ps.total {
		panic(fmt.Sprintf("index: coefficient id %d out of range [0, %d)", id, ps.total))
	}
}

// pin faults in the page holding id and returns its decoded slab plus
// the page number. An I/O or corruption error is NOT fatal: it surfaces
// as ErrPageUnavailable so serving layers can withhold the affected
// coefficients while every other page keeps serving — a single bad
// sector must degrade one frame's coverage, not kill the process (the
// CRC directory still makes damage loud rather than wrong).
func (ps *PagedStore) pin(id int64) ([]wavelet.Coefficient, int32, error) {
	page := int32(id / ps.perPage)
	v, err := ps.pager.Pin(int(page))
	if err != nil {
		return nil, page, pageUnavailable(page, err)
	}
	return v.([]wavelet.Coefficient), page, nil
}

// Coeff resolves a global id to a private copy of the coefficient (see
// the CoefficientSource contract). The page is pinned only for the
// duration of the call, and once unpinned its slab may be evicted and
// overwritten by any other session's fault, so a pointer into it is
// worth nothing. One allocation per call: readers of more than a
// handful of coefficients go through NewPins.
func (ps *PagedStore) Coeff(id int64) (*wavelet.Coefficient, error) {
	ps.checkID(id)
	slab, page, err := ps.pin(id)
	if err != nil {
		return nil, err
	}
	c := slab[id%ps.perPage]
	ps.pager.Unpin(int(page))
	return &c, nil
}

// NewPins returns an empty frame-scoped pin set over the store (see
// Pins).
func (ps *PagedStore) NewPins() *Pins {
	return &Pins{ps: ps, slabs: make(map[int32][]wavelet.Coefficient)}
}

// pinPage points p at the page holding id, pinning it on the set's first
// touch, and resolves id there.
func (p *Pins) pinPage(id int64) (*wavelet.Coefficient, error) {
	ps := p.ps
	ps.checkID(id)
	page := int32(id / ps.perPage)
	slab, ok := p.slabs[page]
	if !ok {
		var err error
		if slab, _, err = ps.pin(id); err != nil {
			return nil, err
		}
		p.slabs[page] = slab
		p.pages = append(p.pages, page)
	}
	p.lo, p.slab = int64(page)*ps.perPage, slab
	p.hi = p.lo + int64(len(slab))
	return &slab[id-p.lo], nil
}
