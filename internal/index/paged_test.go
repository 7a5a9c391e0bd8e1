package index

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/persist"
	"repro/internal/wavelet"
)

// testObjects builds a few small decomposed objects for store tests.
func testObjects(t testing.TB, n int) []*wavelet.Decomposition {
	return testObjectsAt(t, n, 2)
}

// testObjectsAt is testObjects at a chosen subdivision depth (66
// coefficients per object at 2, 1 026 at 4).
func testObjectsAt(t testing.TB, n, levels int) []*wavelet.Decomposition {
	t.Helper()
	objs := make([]*wavelet.Decomposition, n)
	for i := range objs {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		s := mesh.RandomBuilding(rng, geom.Vec2{X: float64(i) * 40, Y: 0}, mesh.DefaultBuildingSpec())
		objs[i] = wavelet.Decompose(int32(i), mesh.BaseMeshFor(s), s, levels)
	}
	return objs
}

// buildPagedPair returns an in-memory store and a PagedStore opened
// over a segment built from it.
func buildPagedPair(t testing.TB, cfg PagedConfig) (*Store, *PagedStore) {
	t.Helper()
	mem := NewStore(testObjects(t, 5))
	path := filepath.Join(t.TempDir(), "coeffs.seg")
	if err := BuildSegment(path, mem, 2, 512); err != nil { // 4 records/page
		t.Fatalf("BuildSegment: %v", err)
	}
	ps, err := OpenPaged(path, cfg)
	if err != nil {
		t.Fatalf("OpenPaged: %v", err)
	}
	t.Cleanup(func() { ps.Close() })
	return mem, ps
}

// pinRecord reads one coefficient's segment record through a
// frame-scoped pin set, failing the test on a storage fault.
func pinRecord(t *testing.T, pins *Pins, id int64) []byte {
	t.Helper()
	rec, err := pins.record(id)
	if err != nil {
		t.Fatalf("Pins.record(%d): %v", id, err)
	}
	return rec
}

// decoded is the coefficient a segment record holds.
func decoded(rec []byte) wavelet.Coefficient {
	var c wavelet.Coefficient
	decodeCoeffRecord(rec, &c)
	return c
}

func TestCoeffRecordRoundTrip(t *testing.T) {
	c := wavelet.Coefficient{
		Object: 7, Vertex: 42, Level: 3,
		Parent: mesh.Edge{A: 5, B: 9},
		Delta:  geom.V3(0.1, -2.5, 1e-17),
		Pos:    geom.V3(123.456, -789.0125, 55.5),
		Value:  0.123456789012345678,
	}
	c.Support.Min = geom.V3(-1.5, -2.5, -3.5)
	c.Support.Max = geom.V3(1.5, 2.5, 3.5)
	rec := make([]byte, CoeffRecordSize)
	for i := range rec {
		rec[i] = 0xff // PutCoeffRecord must write every byte, the reserved ones too
	}
	PutCoeffRecord(rec, &c)
	if reserved := rec[20:24]; string(reserved) != "\x00\x00\x00\x00" {
		t.Fatalf("reserved bytes = %x, want zero", reserved)
	}
	var got wavelet.Coefficient
	decodeCoeffRecord(rec, &got)
	if got != c {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, c)
	}
}

func TestPagedMatchesStore(t *testing.T) {
	mem, ps := buildPagedPair(t, PagedConfig{CacheBytes: 2 * 512})

	if ps.NumCoeffs() != mem.NumCoeffs() || ps.NumObjects() != mem.NumObjects() ||
		ps.BaseVerts() != mem.BaseVerts() || ps.SizeBytes() != mem.SizeBytes() {
		t.Fatalf("shape mismatch: paged %d/%d/%d/%d vs mem %d/%d/%d/%d",
			ps.NumCoeffs(), ps.NumObjects(), ps.BaseVerts(), ps.SizeBytes(),
			mem.NumCoeffs(), mem.NumObjects(), mem.BaseVerts(), mem.SizeBytes())
	}
	if ps.Bounds() != mem.Bounds() {
		t.Fatalf("Bounds: paged %+v vs mem %+v (must be float-identical)", ps.Bounds(), mem.Bounds())
	}
	if ps.Levels() != 2 {
		t.Fatalf("Levels = %d, want 2", ps.Levels())
	}
	for id := int64(0); id < mem.NumCoeffs(); id++ {
		pc, mc := MustCoeff(ps, id), MustCoeff(mem, id)
		if *pc != *mc {
			t.Fatalf("coefficient %d differs:\npaged %+v\n  mem %+v", id, *pc, *mc)
		}
		if ps.ID(pc.Object, pc.Vertex) != id {
			t.Fatalf("ID(%d, %d) = %d, want %d", pc.Object, pc.Vertex, ps.ID(pc.Object, pc.Vertex), id)
		}
	}
	// With a 2-page budget over many pages, the full scan must have
	// faulted and evicted; residency stays within budget at rest.
	st := ps.PagerStats()
	if st.Evictions == 0 {
		t.Fatal("full scan under a 2-page budget should evict")
	}
	if st.ResidentBytes > st.CacheBytes {
		t.Fatalf("ResidentBytes %d > budget %d with no pins held", st.ResidentBytes, st.CacheBytes)
	}
	if st.PagesPinned != 0 {
		t.Fatalf("PagesPinned = %d after bare Coeff calls", st.PagesPinned)
	}
	if st.Pins != st.Hits+st.Faults {
		t.Fatalf("Pins %d != Hits %d + Faults %d", st.Pins, st.Hits, st.Faults)
	}
	if st.PagesResident != st.Faults-st.Evictions {
		t.Fatalf("PagesResident %d != Faults %d - Evictions %d", st.PagesResident, st.Faults, st.Evictions)
	}
}

func TestPinsHoldPagesForFrame(t *testing.T) {
	mem, ps := buildPagedPair(t, PagedConfig{CacheBytes: 512}) // one-page budget
	pins := ps.NewPins()
	// Read a spread of records through the pin set; every page they lie
	// on must stay resident (and its records correct) while the frame is
	// open.
	ids := []int64{0, 1, 5, 9, 17, mem.NumCoeffs() - 1}
	recs := make([][]byte, len(ids))
	for i, id := range ids {
		recs[i] = pinRecord(t, pins, id)
	}
	st := ps.PagerStats()
	if st.PagesPinned == 0 {
		t.Fatal("open frame holds no pins")
	}
	for i, id := range ids {
		if decoded(recs[i]) != *MustCoeff(mem, id) {
			t.Fatalf("pinned coefficient %d changed under the frame", id)
		}
	}
	pins.Release()
	st = ps.PagerStats()
	if st.PagesPinned != 0 {
		t.Fatalf("PagesPinned = %d after Release", st.PagesPinned)
	}
	if st.ResidentBytes > st.CacheBytes {
		t.Fatalf("ResidentBytes %d > budget %d after Release", st.ResidentBytes, st.CacheBytes)
	}
	// Reuse after Release works and re-pins.
	if decoded(pinRecord(t, pins, 3)) != *MustCoeff(mem, 3) {
		t.Fatal("reused Pins returned wrong coefficient")
	}
	pins.Release()
}

// TestPagedDebugCatchesUseAfterUnpin: in debug mode, a page record held
// past its pin set's Release reads poisoned bytes, which decode to
// object -1 and NaN floats.
func TestPagedDebugCatchesUseAfterUnpin(t *testing.T) {
	_, ps := buildPagedPair(t, PagedConfig{CacheBytes: 512, Debug: true})

	// Legal immediate use still works in debug mode (private copy).
	c := MustCoeff(ps, 0)
	if math.IsNaN(c.Value) || c.Object != 0 {
		t.Fatalf("debug-mode immediate Coeff read poisoned data: %+v", c)
	}

	// Illegal: hold a frame's record past Release.
	pins := ps.NewPins()
	held := pinRecord(t, pins, 0)
	if c := decoded(held); c.Object != 0 || math.IsNaN(c.Value) {
		t.Fatalf("pinned record reads %+v", c)
	}
	pins.Release()
	if c := decoded(held); !math.IsNaN(c.Value) || !math.IsNaN(c.Pos.X) || c.Object != -1 {
		t.Fatalf("use-after-unpin not poisoned in debug mode: %+v", c)
	}
}

func TestPagedCoeffOutOfRange(t *testing.T) {
	_, ps := buildPagedPair(t, PagedConfig{})
	record := func(id int64) { ps.NewPins().AppendRecords(nil, []int64{id}) }
	for _, id := range []int64{-1, ps.NumCoeffs(), ps.NumCoeffs() + 100} {
		for _, read := range []func(int64){func(id int64) { ps.Coeff(id) }, record} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("read of id %d did not panic", id)
					}
					if !strings.Contains(r.(string), "out of range") {
						t.Fatalf("panic %q lacks a descriptive message", r)
					}
				}()
				read(id)
			}()
		}
	}
}

// TestStoreCoeffOutOfRange is the satellite-2 regression test: bad ids
// fail with a descriptive panic, not an index-out-of-range crash (or,
// for negative ids, a silent resolve to object 0) — through Store.Coeff
// and through a pin set that has just resolved the last object, for a
// coefficient and for its wire record.
func TestStoreCoeffOutOfRange(t *testing.T) {
	s := NewStore(testObjects(t, 3))
	pinned := func(id int64) (*wavelet.Coefficient, error) {
		pins := s.NewPins()
		pins.Coeff(s.NumCoeffs() - 1)
		return pins.Coeff(id)
	}
	record := func(id int64) (*wavelet.Coefficient, error) {
		_, _, err := s.NewPins().AppendRecords(nil, []int64{id})
		return nil, err
	}
	for _, id := range []int64{-1, s.NumCoeffs(), s.NumCoeffs() + 7} {
		for _, read := range []func(int64) (*wavelet.Coefficient, error){s.Coeff, pinned, record} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("Coeff(%d) did not panic", id)
					}
					msg, ok := r.(string)
					if !ok || !strings.Contains(msg, "out of range") || !strings.Contains(msg, "coefficient id") {
						t.Fatalf("panic %v lacks a descriptive message", r)
					}
				}()
				read(id)
			}()
		}
	}

	// Empty store: every id is out of range.
	empty := NewStore(nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty Store.Coeff(0) did not panic")
			}
		}()
		empty.Coeff(0)
	}()

	// In-range ids keep working.
	if c := MustCoeff(s, 0); c.Object != 0 || c.Vertex != 0 {
		t.Fatalf("Coeff(0) = %+v", c)
	}
	last := s.NumCoeffs() - 1
	if c := MustCoeff(s, last); s.ID(c.Object, c.Vertex) != last {
		t.Fatalf("Coeff(last) round trip failed: %+v", c)
	}
}

func TestOpenPagedRejectsForeignSegment(t *testing.T) {
	// A segment with the wrong record size must not open as a store.
	path := filepath.Join(t.TempDir(), "foreign.seg")
	spec := persist.SegmentSpec{PageSize: 512, RecordSize: 64}
	err := persist.WriteSegment(path, spec, func(a *persist.SegmentAppender) ([]byte, error) {
		return nil, a.Append(make([]byte, 64))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPaged(path, PagedConfig{}); err == nil {
		t.Fatal("foreign segment accepted")
	}

	// Right record size but garbage meta must not open either.
	bad := filepath.Join(t.TempDir(), "badmeta.seg")
	spec = persist.SegmentSpec{PageSize: 512, RecordSize: CoeffRecordSize}
	err = persist.WriteSegment(bad, spec, func(a *persist.SegmentAppender) ([]byte, error) {
		return []byte("not a meta blob"), a.Append(make([]byte, CoeffRecordSize))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPaged(bad, PagedConfig{}); err == nil {
		t.Fatal("garbage meta accepted")
	}
}
