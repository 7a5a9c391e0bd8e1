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
// dataset. Pages are cached as the CRC-verified bytes read, and a
// reader decodes only what it needs from a pinned one: a coefficient
// (Coeff, the build scan), its Pos (the merge filter) or its wire
// record (the encode: putWireRecord, the Store's bytes).
package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
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

// PutCoeffRecord serializes one coefficient in segment-record form,
// writing every byte of rec[:CoeffRecordSize].
func PutCoeffRecord(rec []byte, c *wavelet.Coefficient) {
	rec = rec[:CoeffRecordSize]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(c.Object))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(c.Vertex))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(int32(c.Level)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(c.Parent.A))
	binary.LittleEndian.PutUint32(rec[16:20], uint32(c.Parent.B))
	binary.LittleEndian.PutUint32(rec[20:24], 0) // reserved
	binary.LittleEndian.PutUint64(rec[24:32], math.Float64bits(c.Value))
	putVec3(rec[32:56], c.Delta)
	putVec3(rec[56:80], c.Pos)
	putVec3(rec[80:104], c.Support.Min)
	putVec3(rec[104:128], c.Support.Max)
}

// decodeCoeffRecord is the inverse of PutCoeffRecord.
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

// putWireRecord writes into w[:WireBytes] the wire record of the
// segment record rec: the ids and Delta copied, Pos and Value narrowed
// to float32 — byte for byte what wavelet.AppendWire gives for the
// Coefficient.Wire of the coefficient rec holds.
func putWireRecord(w, rec []byte) {
	w, rec = w[:wavelet.WireBytes], rec[:CoeffRecordSize]
	le := binary.LittleEndian
	le.PutUint64(w[0:], le.Uint64(rec[0:]))
	le.PutUint64(w[8:], le.Uint64(rec[32:]))
	le.PutUint64(w[16:], le.Uint64(rec[40:]))
	le.PutUint64(w[24:], le.Uint64(rec[48:]))
	narrow(w[32:], rec[56:])
	narrow(w[36:], rec[64:])
	narrow(w[40:], rec[72:])
	narrow(w[44:], rec[24:])
}

// narrow writes the float64 in src[:8] as a float32 into dst[:4].
func narrow(dst, src []byte) {
	f := math.Float64frombits(binary.LittleEndian.Uint64(src))
	binary.LittleEndian.PutUint32(dst, math.Float32bits(float32(f)))
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

// segBands is how many equal-width slices of the coefficient value w
// the segment is laid out by: a coefficient's band is min(⌊5w⌋, 4).
// BuildSegment writes the coarsest band first and keeps ascending id
// order within a band, so the coarse coefficients a fast client asks for
// (w ≥ 0.8) sit together on a few pages instead of one page per
// building.
const segBands = 5

// bandOf returns the layout band of a coefficient value, coarsest = 4.
// Values outside [0, 1] (and NaN) land in the nearest end band.
func bandOf(w float64) int {
	if !(w > 0) {
		return 0
	}
	return min(int(w*segBands), segBands-1)
}

const (
	// segMetaMagic identifies a coefficient-segment meta blob ("MACO").
	segMetaMagic = uint32(0x4F43414D)
	// segMetaVersion 3 adds the scene's shard count and registry order;
	// version 2 added the id→slot table of the band-major layout. Older
	// segments must be rebuilt.
	segMetaVersion = uint32(3)
	segMetaFixed   = 28 + 48 // seven u32 + bounds (6 × f64)
)

// SegmentScene is what a segment records about the scene it holds
// besides its coefficients: all a backend needs to serve the scene
// again after a restart or a drain.
type SegmentScene struct {
	Levels int // subdivision depth the scene handshake announces
	Shards int // grid shards of the scene's index (≤ 1: one)
	Order  int // the scene's place in its backend's registry order, default first
}

// segMetaSize is the meta blob's length for a segment of the given
// shape: the fixed header, 8 B per object offset and 4 B per slot.
func segMetaSize(objects int, coeffs int64) int64 {
	return segMetaFixed + 8*int64(objects) + 4*coeffs
}

// EncodeSegmentMeta builds the footer meta blob for a coefficient
// segment: the scene (levels, shards, order), base verts, the exact
// dataset bounds (stored verbatim so a segment's handshake space is
// float-identical to the in-memory store's), the per-object id offset
// table, and the id→slot table (slots[id] is the record position
// holding coefficient id; it must be a permutation of [0, len(slots))).
func EncodeSegmentMeta(sc SegmentScene, baseVerts int, bounds geom.Rect3, offsets []int64, slots []uint32) []byte {
	meta := make([]byte, 0, segMetaSize(len(offsets), int64(len(slots))))
	for _, v := range [7]int{int(segMetaMagic), int(segMetaVersion), sc.Levels, baseVerts, len(offsets), sc.Shards, sc.Order} {
		meta = binary.LittleEndian.AppendUint32(meta, uint32(v))
	}
	for _, v := range [6]float64{bounds.Min.X, bounds.Min.Y, bounds.Min.Z,
		bounds.Max.X, bounds.Max.Y, bounds.Max.Z} {
		meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(v))
	}
	for _, off := range offsets {
		meta = binary.LittleEndian.AppendUint64(meta, uint64(off))
	}
	for _, slot := range slots {
		meta = binary.LittleEndian.AppendUint32(meta, slot)
	}
	return meta
}

// segmentMeta is a decoded coefficient-segment meta blob.
type segmentMeta struct {
	scene     SegmentScene
	baseVerts int
	bounds    geom.Rect3
	offsets   []int64
	slots     []uint32
}

// decodeSegmentMeta parses and validates a coefficient-segment meta
// blob against the segment's record count. The slot table must be a
// bijection onto [0, total): a duplicate slot would serve one record
// for two ids, which no page CRC can catch.
func decodeSegmentMeta(meta []byte, total int64) (m segmentMeta, err error) {
	if len(meta) < segMetaFixed {
		return m, fmt.Errorf("index: segment meta of %d bytes is too short", len(meta))
	}
	if total < 0 {
		return m, fmt.Errorf("index: segment of %d records", total)
	}
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(meta[off:])) }
	if magic := uint32(u32(0)); magic != segMetaMagic {
		return m, fmt.Errorf("index: bad segment meta magic %#x", magic)
	}
	switch v := uint32(u32(4)); {
	case v < segMetaVersion:
		return m, fmt.Errorf("index: segment meta version %d predates the scene fields; rebuild the segment", v)
	case v != segMetaVersion:
		return m, fmt.Errorf("index: unsupported segment meta version %d", v)
	}
	m.scene = SegmentScene{Levels: u32(8), Shards: u32(20), Order: u32(24)}
	m.baseVerts = u32(12)
	numObjects := u32(16)
	if int64(len(meta)) != segMetaSize(numObjects, total) {
		return m, fmt.Errorf("index: segment meta of %d bytes does not hold %d objects and %d slots",
			len(meta), numObjects, total)
	}
	f := func(off int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(meta[28+8*off:]))
	}
	m.bounds = geom.Rect3{
		Min: geom.Vec3{X: f(0), Y: f(1), Z: f(2)},
		Max: geom.Vec3{X: f(3), Y: f(4), Z: f(5)},
	}
	m.offsets = make([]int64, numObjects)
	prev := int64(0)
	for i := range m.offsets {
		m.offsets[i] = int64(binary.LittleEndian.Uint64(meta[segMetaFixed+8*i:]))
		if m.offsets[i] < prev || m.offsets[i] > total {
			return m, fmt.Errorf("index: segment offset table not monotone at object %d", i)
		}
		prev = m.offsets[i]
	}
	if numObjects > 0 && m.offsets[0] != 0 {
		return m, fmt.Errorf("index: segment offset table starts at %d, want 0", m.offsets[0])
	}
	if numObjects == 0 && total != 0 {
		return m, fmt.Errorf("index: segment has %d coefficients but no objects", total)
	}
	table := meta[segMetaFixed+8*numObjects:]
	m.slots = make([]uint32, total)
	seen := make([]uint64, (total+63)/64)
	for id := range m.slots {
		slot := binary.LittleEndian.Uint32(table[4*id:])
		if int64(slot) >= total {
			return m, fmt.Errorf("index: segment slot table maps id %d to slot %d of %d", id, slot, total)
		}
		if seen[slot/64]&(1<<(slot%64)) != 0 {
			return m, fmt.Errorf("index: segment slot table maps id %d to slot %d twice", id, slot)
		}
		seen[slot/64] |= 1 << (slot % 64)
		m.slots[id] = slot
	}
	return m, nil
}

// BuildSegment streams a source into a segment file at path
// (atomically), laid out band-major: the records of band 4 (w ≥ 0.8)
// first, then bands 3 to 0, each in ascending id order, with the
// id→slot table in the meta. It reads the source twice: its scan, in
// ascending id order, places every id; then a pin set reads the records
// in slot order, each written straight into the appender's page buffer,
// so a paged source is read a page at a time. levels is the
// subdivision depth to record for the scene handshake; pageSize 0 uses
// the persist default. A source whose slot table would not fit under
// persist.MaxSegmentMeta is refused before anything is written.
func BuildSegment(path string, src CoefficientSource, levels, pageSize int) error {
	return BuildSceneSegment(path, src, SegmentScene{Levels: levels}, pageSize)
}

// BuildSceneSegment is BuildSegment recording the whole scene, shards
// and registry order as well as levels, in the segment's meta.
func BuildSceneSegment(path string, src CoefficientSource, sc SegmentScene, pageSize int) error {
	total := src.NumCoeffs()
	if size := segMetaSize(src.NumObjects(), total); size > persist.MaxSegmentMeta {
		return fmt.Errorf("index: a segment of %d objects and %d coefficients needs %d B of meta, over the %d B limit",
			src.NumObjects(), total, size, persist.MaxSegmentMeta)
	}
	// Place every id: count each band's records, then hand out slots in
	// band order, ascending id within a band — a stable counting
	// partition. order is the inverse of slots: the ids in record order.
	band := make([]uint8, total)
	var count [segBands]int64
	read := int64(0)
	src.scan(func(id int64, c *wavelet.Coefficient) {
		b := bandOf(c.Value)
		band[id] = uint8(b)
		count[b]++
		read++
	})
	if read != total {
		return fmt.Errorf("index: segment build: %d of %d coefficients are unreadable", total-read, total)
	}
	var next [segBands]int64 // each band's next free slot
	at := int64(0)
	for b := segBands - 1; b >= 0; b-- {
		next[b], at = at, at+count[b]
	}
	slots, order := make([]uint32, total), make([]uint32, total)
	for id, b := range band {
		slots[id], order[next[b]] = uint32(next[b]), uint32(id)
		next[b]++
	}
	spec := persist.SegmentSpec{PageSize: pageSize, RecordSize: CoeffRecordSize}
	return persist.WriteSegment(path, spec, func(a *persist.SegmentAppender) ([]byte, error) {
		pins := src.NewPins()
		defer pins.Release()
		for _, id := range order {
			if !pins.holds(int64(id)) {
				pins.Release()
			}
			c, err := pins.Coeff(int64(id))
			if err != nil {
				return nil, fmt.Errorf("index: segment build at id %d: %w", id, err)
			}
			rec, err := a.Reserve()
			if err != nil {
				return nil, err
			}
			PutCoeffRecord(rec, c)
		}
		offsets := make([]int64, src.NumObjects())
		for i := range offsets {
			offsets[i] = src.ID(int32(i), 0)
		}
		return EncodeSegmentMeta(sc, src.BaseVerts(), src.Bounds(), offsets, slots), nil
	})
}

// CopySegment copies the coefficient segment at src to dst
// (atomically), page by page, each page CRC-checked as it is read. The
// copy's pages are the source's byte for byte; its meta differs only in
// the scene's registry order, which becomes order. A page that does not
// read clean fails the copy and leaves dst as it was: a drain must not
// relocate a scene with records missing.
func CopySegment(src, dst string, order int) error {
	seg, err := persist.OpenSegment(src)
	if err != nil {
		return err
	}
	defer seg.Close()
	m, err := decodeSegmentMeta(seg.Meta(), seg.NumRecords())
	if err == nil && seg.RecordSize() != CoeffRecordSize {
		err = fmt.Errorf("index: segment record size %d, want %d", seg.RecordSize(), CoeffRecordSize)
	}
	if err != nil {
		return fmt.Errorf("index: segment %s: %w", src, err)
	}
	m.scene.Order = order
	spec := persist.SegmentSpec{PageSize: seg.PageSize(), RecordSize: CoeffRecordSize}
	return persist.WriteSegment(dst, spec, func(a *persist.SegmentAppender) ([]byte, error) {
		var buf []byte
		for page := range seg.NumPages() {
			b, err := seg.ReadPage(page, buf)
			if err != nil {
				return nil, err
			}
			for r := range seg.RecordsInPage(page) {
				if err := a.Append(b[r*CoeffRecordSize : (r+1)*CoeffRecordSize]); err != nil {
					return nil, err
				}
			}
			buf = b
		}
		return EncodeSegmentMeta(m.scene, m.baseVerts, m.bounds, m.offsets, m.slots), nil
	})
}

// PagedConfig configures a PagedStore.
type PagedConfig struct {
	// CacheBytes bounds the resident page bytes, accounted in record
	// bytes (≤0 → persist.DefaultPageCacheBytes).
	CacheBytes int64
	// Debug evicts and poisons pages on unpin-to-zero, so any record
	// read from a pin set's page after its Release fails loudly (NaN
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
// offset and slot tables, footer metadata, and the bounded page cache
// are resident. Serving layers that hold coefficients across a frame
// read through NewPins.
type PagedStore struct {
	seg     *persist.Segment
	pager   *persist.Pager
	offsets []int64
	// slots[id] is the record position of coefficient id in the
	// band-major layout; its page is slot / perPage.
	slots   []uint32
	total   int64
	perPage int64
	scene   SegmentScene
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
	m, err := decodeSegmentMeta(seg.Meta(), seg.NumRecords())
	if err != nil {
		return nil, err
	}
	ps := &PagedStore{
		seg:     seg,
		offsets: m.offsets,
		slots:   m.slots,
		total:   seg.NumRecords(),
		perPage: int64(seg.RecordsPerPage()),
		scene:   m.scene,
		base:    m.baseVerts,
		bounds:  m.bounds,
	}
	ps.pager = persist.NewPager(seg, persist.PagerConfig{
		CacheBytes:   cfg.CacheBytes,
		Debug:        cfg.Debug,
		RetryMax:     cfg.RetryMax,
		RetryBackoff: cfg.RetryBackoff,
	})
	return ps, nil
}

// Close releases the underlying segment file. The store must be
// quiescent: no in-flight Coeff calls or live pins.
func (ps *PagedStore) Close() error { return ps.seg.Close() }

// Levels returns the subdivision depth recorded when the segment was
// built; the scene handshake announces it.
func (ps *PagedStore) Levels() int { return ps.scene.Levels }

// Scene returns the scene the segment records (see SegmentScene).
func (ps *PagedStore) Scene() SegmentScene { return ps.scene }

// Load reads every record of the segment into a resident Store: a page
// at a time, straight from the segment (not through the page cache),
// each record decoded into its object's slab. A page that does not read
// clean fails the load (a corrupt one with persist.ErrCorrupt under
// errors.Is), since a resident store cannot withhold coefficients. The
// store's objects hold their coefficients and level count only, no base
// or final mesh: serving reads neither, and its Bounds and BaseVerts
// come from the segment's meta.
func (ps *PagedStore) Load() (*Store, error) {
	coeffs := make([]wavelet.Coefficient, ps.total)
	ids := make([]uint32, ps.total) // the inverse of slots: the id each slot holds
	for id, slot := range ps.slots {
		ids[slot] = uint32(id)
	}
	var buf []byte
	for page := range ps.seg.NumPages() {
		b, err := ps.seg.ReadPage(page, buf)
		if err != nil {
			return nil, err
		}
		first := int64(page) * ps.perPage
		for r := range ps.seg.RecordsInPage(page) {
			decodeCoeffRecord(b[r*CoeffRecordSize:], &coeffs[ids[first+int64(r)]])
		}
		buf = b
	}
	objs := make([]*wavelet.Decomposition, len(ps.offsets))
	for i, lo := range ps.offsets {
		hi := ps.total
		if i+1 < len(ps.offsets) {
			hi = ps.offsets[i+1]
		}
		for j := range coeffs[lo:hi] {
			if c := &coeffs[lo+int64(j)]; c.Object != int32(i) || c.Vertex != int32(j) {
				return nil, fmt.Errorf("index: segment record of id %d holds object %d vertex %d", lo+int64(j), c.Object, c.Vertex)
			}
		}
		objs[i] = &wavelet.Decomposition{Object: int32(i), J: ps.scene.Levels, Coeffs: coeffs[lo:hi:hi]}
	}
	return newStore(objs, ps.bounds, ps.base), nil
}

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

// checkID panics descriptively on an out-of-range id (same contract as
// Store.objectOf).
func (ps *PagedStore) checkID(id int64) {
	if id < 0 || id >= ps.total {
		panic(fmt.Sprintf("index: coefficient id %d out of range [0, %d)", id, ps.total))
	}
}

// PageOf returns the segment page holding coefficient id — the address
// fault harnesses corrupt and count withheld coefficients by. Pages do
// not hold id ranges: the layout is band-major (see BuildSegment).
func (ps *PagedStore) PageOf(id int64) int {
	ps.checkID(id)
	return int(int64(ps.slots[id]) / ps.perPage)
}

// pin faults in a page and returns its records. An I/O or corruption
// error is NOT fatal: it surfaces as ErrPageUnavailable so serving
// layers can withhold the affected coefficients while every other page
// keeps serving — a single bad sector must degrade one frame's
// coverage, not kill the process (the CRC directory still makes damage
// loud rather than wrong).
func (ps *PagedStore) pin(page int32) ([]byte, error) {
	b, err := ps.pager.Pin(int(page))
	if err != nil {
		return nil, pageUnavailable(page, err)
	}
	return b, nil
}

// Coeff resolves a global id to a private copy of the coefficient (see
// the CoefficientSource contract), decoded from its page while pinned
// for the duration of the call. One allocation per call: readers of
// more than a handful of coefficients go through NewPins.
func (ps *PagedStore) Coeff(id int64) (*wavelet.Coefficient, error) {
	ps.checkID(id)
	slot := int64(ps.slots[id])
	page := int32(slot / ps.perPage)
	b, err := ps.pin(page)
	if err != nil {
		return nil, err
	}
	c := new(wavelet.Coefficient)
	off := (slot % ps.perPage) * CoeffRecordSize
	decodeCoeffRecord(b[off:off+CoeffRecordSize], c)
	ps.pager.Unpin(int(page))
	return c, nil
}

// scan calls fn with every readable coefficient in ascending id order
// (see CoefficientSource), each decoded from its record into one
// scratch coefficient, pinning each page once: a page stays pinned from
// the first of its records the scan reaches to the last. Ascending ids
// advance through every band at once, so about one page per band — plus
// the pages straddling two bands — is pinned at a time.
func (ps *PagedStore) scan(fn func(id int64, c *wavelet.Coefficient)) {
	pages := make([][]byte, ps.seg.NumPages())
	left := make([]int32, len(pages)) // records of each page the scan has yet to reach
	for p := range left {
		left[p] = int32(ps.seg.RecordsInPage(p))
	}
	var c wavelet.Coefficient
	for id, slot := range ps.slots {
		page := int64(slot) / ps.perPage
		if pages[page] == nil {
			pages[page], _ = ps.pin(int32(page)) // unreadable: skipped, retried at its next record
		}
		if b := pages[page]; b != nil {
			off := (int64(slot) - page*ps.perPage) * CoeffRecordSize
			decodeCoeffRecord(b[off:off+CoeffRecordSize], &c)
			fn(int64(id), &c)
		}
		if left[page]--; left[page] == 0 && pages[page] != nil {
			ps.pager.Unpin(int(page))
			pages[page] = nil
		}
	}
}

// NewPins returns an empty frame-scoped pin set over the store (see
// Pins).
func (ps *PagedStore) NewPins() *Pins {
	return &Pins{ps: ps, pages: make(map[int32][]byte)}
}

// record resolves id through the slot table to its 128 B segment
// record, valid until Release: in the page p resolved last, else one
// this set already pinned, else a fresh pin on the set's first touch.
func (p *Pins) record(id int64) ([]byte, error) {
	ps := p.ps
	ps.checkID(id)
	slot := int64(ps.slots[id])
	if slot < p.slotLo || slot >= p.slotHi {
		page := int32(slot / ps.perPage)
		b, ok := p.pages[page]
		if !ok {
			var err error
			if b, err = ps.pin(page); err != nil {
				return nil, err
			}
			p.pages[page] = b
			p.pinned = append(p.pinned, page)
		}
		p.slotLo, p.page = int64(page)*ps.perPage, b
		p.slotHi = p.slotLo + int64(len(b)/CoeffRecordSize)
	}
	off := (slot - p.slotLo) * CoeffRecordSize
	return p.page[off : off+CoeffRecordSize : off+CoeffRecordSize], nil
}
