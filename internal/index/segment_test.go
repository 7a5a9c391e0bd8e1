package index

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/persist"
	"repro/internal/wavelet"
)

// TestSegmentLayoutIsBandMajor: record slots ascend by band, coarsest
// (w ≥ 0.8) first, and by id within a band; every id has its own slot.
func TestSegmentLayoutIsBandMajor(t *testing.T) {
	mem, ps := buildPagedPair(t, PagedConfig{})
	bySlot := make([]int64, ps.NumCoeffs())
	for i := range bySlot {
		bySlot[i] = -1
	}
	for id := range ps.slots {
		bySlot[ps.slots[id]] = int64(id)
	}
	bands := map[int]bool{}
	for slot, id := range bySlot {
		if id < 0 {
			t.Fatalf("slot %d holds no id", slot)
		}
		b := bandOf(MustCoeff(mem, id).Value)
		bands[b] = true
		if slot == 0 {
			continue
		}
		prev := bySlot[slot-1]
		pb := bandOf(MustCoeff(mem, prev).Value)
		if pb < b || pb == b && prev > id {
			t.Fatalf("slot %d holds id %d (band %d) after id %d (band %d)", slot, id, b, prev, pb)
		}
	}
	if len(bands) < 3 {
		t.Fatalf("the test store spans only bands %v", bands)
	}
	// The records themselves sit where the table says.
	for id := int64(0); id < ps.NumCoeffs(); id++ {
		if *MustCoeff(ps, id) != *MustCoeff(mem, id) {
			t.Fatalf("coefficient %d differs between the paged and the resident store", id)
		}
	}
}

func TestBandOf(t *testing.T) {
	for _, c := range []struct {
		w    float64
		band int
	}{{0, 0}, {0.1999, 0}, {0.2, 1}, {0.5, 2}, {0.7999999999999999, 3}, {0.8, 4}, {1, 4}, {-1, 0}, {2, 4}} {
		if got := bandOf(c.w); got != c.band {
			t.Errorf("bandOf(%v) = %d, want %d", c.w, got, c.band)
		}
	}
}

// TestCoarseWindowPinsFewPages: a whole-city window at the tram cutoff
// (w ≥ 0.8) reads only the coarse band, which the layout packs onto the
// first pages: at most ⌈coarse records / perPage⌉ + 1 pages are pinned.
func TestCoarseWindowPinsFewPages(t *testing.T) {
	mem := NewStore(testObjectsAt(t, 12, 3))
	path := filepath.Join(t.TempDir(), "coeffs.seg")
	if err := BuildSegment(path, mem, 3, 1024); err != nil { // 8 records/page
		t.Fatal(err)
	}
	ps, err := OpenPaged(path, PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	coarse := int64(0)
	for id := int64(0); id < mem.NumCoeffs(); id++ {
		if MustCoeff(mem, id).Value >= 0.8 {
			coarse++
		}
	}
	b := mem.Bounds()
	q := Query{Region: b.XY(), ZMin: b.Min.Z, ZMax: b.Max.Z, WMin: 0.8, WMax: 1}
	ids, _ := NewSharded(ps, XYW, ShardedConfig{Shards: 4}).Search(q)
	if int64(len(ids)) != coarse {
		t.Fatalf("window finds %d ids, %d coefficients have w ≥ 0.8", len(ids), coarse)
	}
	pins := ps.NewPins()
	defer pins.Release()
	for _, id := range ids {
		if _, err := pins.Coeff(id); err != nil {
			t.Fatal(err)
		}
	}
	perPage := int64(ps.Segment().RecordsPerPage())
	limit := (coarse+perPage-1)/perPage + 1
	if got := int64(len(pins.pages)); got > limit {
		t.Fatalf("%d coarse coefficients pinned %d pages, want at most %d", coarse, got, limit)
	}
	if pages := ps.Segment().NumPages(); int64(pages) < 4*limit {
		t.Fatalf("the segment has %d pages; too few for the bound %d to mean anything", pages, limit)
	}
}

// TestPagedShardedNodeIOMatchesStore: the layout changes where records
// sit, not what the build scan hands the bulk loads, so a Sharded over
// the paged store finds the same ids in the same node reads as one over
// the resident store, query for query.
func TestPagedShardedNodeIOMatchesStore(t *testing.T) {
	mem := NewStore(testObjectsAt(t, 12, 3))
	path := filepath.Join(t.TempDir(), "coeffs.seg")
	if err := BuildSegment(path, mem, 3, 1024); err != nil {
		t.Fatal(err)
	}
	ps, err := OpenPaged(path, PagedConfig{CacheBytes: 4 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	paged := NewSharded(ps, XYW, ShardedConfig{Shards: 4})
	resident := NewSharded(mem, XYW, ShardedConfig{Shards: 4})
	b := mem.Bounds()
	space := b.XY()
	rng := rand.New(rand.NewSource(3))
	var pio, rio int64
	var pc, rc Cursor
	var pbuf, rbuf []int64
	for i := 0; i < 200; i++ {
		at := geom.V2(space.Min.X+rng.Float64()*space.Width(), space.Min.Y+rng.Float64()*space.Height())
		q := Query{
			Region: geom.RectAround(at, space.Width()*(0.05+0.3*rng.Float64())),
			ZMin:   b.Min.Z, ZMax: b.Max.Z, WMin: rng.Float64(), WMax: 1,
		}
		var p, r int64
		pbuf, p = paged.SearchInto(q, pbuf[:0], &pc)
		rbuf, r = resident.SearchInto(q, rbuf[:0], &rc)
		if p != r || !slices.Equal(pbuf, rbuf) {
			t.Fatalf("query %d: paged finds %d ids in %d reads, resident %d in %d", i, len(pbuf), p, len(rbuf), r)
		}
		pio += p
		rio += r
	}
	if pio != rio || pio == 0 {
		t.Fatalf("node_io: paged %d, resident %d", pio, rio)
	}
}

// hugeSource claims more coefficients than a slot table under
// persist.MaxSegmentMeta can address; BuildSegment must refuse it before
// reading a coefficient.
type hugeSource struct{ CoefficientSource }

func (hugeSource) NumObjects() int  { return 1 }
func (hugeSource) NumCoeffs() int64 { return persist.MaxSegmentMeta / 4 }

func TestBuildSegmentRefusesOversizedMeta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.seg")
	err := BuildSegment(path, hugeSource{}, 3, 0)
	if err == nil || !strings.Contains(err.Error(), "meta") {
		t.Fatalf("BuildSegment of %d coefficients = %v, want a meta-size refusal", hugeSource{}.NumCoeffs(), err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused build left a file behind: %v", err)
	}
}

// metaSeeds are FuzzSegmentMeta's seeds and the rejection test's cases:
// a valid v2 meta over three coefficients, the same meta as version 1,
// a duplicate slot, an out-of-range slot and a truncated table.
func metaSeeds() (valid, v1, dup, outOfRange, truncated []byte) {
	bounds := geom.Rect3{Min: geom.V3(0, 0, 0), Max: geom.V3(1, 2, 3)}
	valid = EncodeSegmentMeta(2, 4, bounds, []int64{0, 2}, []uint32{1, 2, 0})
	v1 = append([]byte(nil), valid[:segMetaFixed+16]...)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	dup = EncodeSegmentMeta(2, 4, bounds, []int64{0, 2}, []uint32{1, 1, 0})
	outOfRange = EncodeSegmentMeta(2, 4, bounds, []int64{0, 2}, []uint32{1, 3, 0})
	truncated = valid[:len(valid)-4]
	return
}

func TestDecodeSegmentMetaRejectsBadTables(t *testing.T) {
	valid, v1, dup, outOfRange, truncated := metaSeeds()
	m, err := decodeSegmentMeta(valid, 3)
	if err != nil || m.levels != 2 || m.baseVerts != 4 || !slices.Equal(m.offsets, []int64{0, 2}) ||
		m.slots[0] != 1 || m.slots[1] != 2 || m.slots[2] != 0 {
		t.Fatalf("valid meta decodes to %+v, %v", m, err)
	}
	for name, c := range map[string]struct {
		meta []byte
		want string
	}{
		"v1":           {v1, "rebuild the segment"},
		"duplicate":    {dup, "twice"},
		"out-of-range": {outOfRange, "slot 3 of 3"},
		"truncated":    {truncated, "does not hold"},
	} {
		if _, err := decodeSegmentMeta(c.meta, 3); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decodeSegmentMeta = %v, want an error saying %q", name, err, c.want)
		}
	}
}

// TestOpenPagedRefusesVersion1: a segment written before the band-major
// layout does not open; the error says to rebuild it.
func TestOpenPagedRefusesVersion1(t *testing.T) {
	_, v1, _, _, _ := metaSeeds()
	path := filepath.Join(t.TempDir(), "v1.seg")
	spec := persist.SegmentSpec{PageSize: 512, RecordSize: CoeffRecordSize}
	err := persist.WriteSegment(path, spec, func(a *persist.SegmentAppender) ([]byte, error) {
		for v := int32(0); v < 3; v++ {
			rec, err := a.Reserve()
			if err != nil {
				return nil, err
			}
			PutCoeffRecord(rec, &wavelet.Coefficient{Object: v / 2, Vertex: v % 2})
		}
		return v1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPaged(path, PagedConfig{}); err == nil || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("OpenPaged of a version-1 segment = %v, want a rebuild error", err)
	}
}

// FuzzSegmentMeta: decodeSegmentMeta never panics, and whatever it
// accepts has an id→slot table that is a bijection onto [0, total) and
// re-encodes to the same bytes.
func FuzzSegmentMeta(f *testing.F) {
	valid, v1, dup, outOfRange, truncated := metaSeeds()
	for _, seed := range [][]byte{valid, v1, dup, outOfRange, truncated} {
		f.Add(seed, int64(3))
	}
	f.Fuzz(func(t *testing.T, meta []byte, total int64) {
		m, err := decodeSegmentMeta(meta, total)
		if err != nil {
			return
		}
		if int64(len(m.slots)) != total {
			t.Fatalf("accepted %d slots for %d records", len(m.slots), total)
		}
		seen := make([]bool, total)
		for id, slot := range m.slots {
			if int64(slot) >= total || seen[slot] {
				t.Fatalf("accepted slot %d for id %d: not a bijection onto [0, %d)", slot, id, total)
			}
			seen[slot] = true
		}
		again := EncodeSegmentMeta(m.levels, m.baseVerts, m.bounds, m.offsets, m.slots)
		// Byte 20..24 is reserved and ignored on decode; the bounds are
		// stored verbatim, NaN payloads included.
		copy(again[20:24], meta[20:24])
		if string(again) != string(meta) {
			t.Fatal("accepted meta does not re-encode to its own bytes")
		}
	})
}
