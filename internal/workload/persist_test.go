package workload

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/persist"
)

// The tests in this file round-trip a dataset through its one on-disk
// form: index.BuildSceneSegment writes it, PagedStore.Load reads it back
// into a resident store.

// benchCity is the end-to-end benchmark's city (bench/workloads.go).
var benchCity = CitySpec{BlocksX: 16, BlocksY: 16, LotsPerBlock: 3, Levels: 3, Seed: 1}

// writeSegment writes store's segment into a temp dir and returns its
// path.
func writeSegment(t *testing.T, store *index.Store, sc index.SegmentScene, pageSize int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scene-default.seg")
	if err := index.BuildSceneSegment(path, store, sc, pageSize); err != nil {
		t.Fatal(err)
	}
	return path
}

// load reads the segment at path into a resident store.
func load(t *testing.T, path string) (*index.Store, error) {
	t.Helper()
	ps, err := index.OpenPaged(path, index.PagedConfig{})
	if err != nil {
		return nil, err
	}
	defer ps.Close()
	return ps.Load()
}

// allIDs returns every id of a store, ascending.
func allIDs(s *index.Store) []int64 {
	ids := make([]int64, s.NumCoeffs())
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

// assertSameStore fails t unless got equals want: bit-identical
// bounds, the same base verts, objects and object ids, an equal
// coefficient at every id, and byte-equal wire records.
func assertSameStore(t *testing.T, got, want *index.Store) {
	t.Helper()
	bits := func(r geom.Rect3) [6]uint64 {
		return [6]uint64{math.Float64bits(r.Min.X), math.Float64bits(r.Min.Y), math.Float64bits(r.Min.Z),
			math.Float64bits(r.Max.X), math.Float64bits(r.Max.Y), math.Float64bits(r.Max.Z)}
	}
	if bits(got.Bounds()) != bits(want.Bounds()) {
		t.Fatalf("bounds %+v, want bit-identical %+v", got.Bounds(), want.Bounds())
	}
	if got.BaseVerts() != want.BaseVerts() || got.NumObjects() != want.NumObjects() || got.NumCoeffs() != want.NumCoeffs() {
		t.Fatalf("shape %d/%d/%d, want %d/%d/%d", got.BaseVerts(), got.NumObjects(), got.NumCoeffs(),
			want.BaseVerts(), want.NumObjects(), want.NumCoeffs())
	}
	for obj := range int32(want.NumObjects()) {
		if got.ID(obj, 0) != want.ID(obj, 0) {
			t.Fatalf("object %d starts at id %d, want %d", obj, got.ID(obj, 0), want.ID(obj, 0))
		}
	}
	for id := range want.NumCoeffs() {
		if *index.MustCoeff(got, id) != *index.MustCoeff(want, id) {
			t.Fatalf("coefficient %d differs", id)
		}
	}
	ids := allIDs(want)
	gw, _, err := got.NewPins().AppendRecords(nil, ids)
	if err != nil {
		t.Fatal(err)
	}
	ww, _, err := want.NewPins().AppendRecords(nil, ids)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gw, ww) {
		t.Fatal("wire records differ")
	}
}

// TestSaveLoadRoundtrip: a store read from its segment equals the store
// it was written from, on the benchmark city and on a Zipf scatter
// dataset.
func TestSaveLoadRoundtrip(t *testing.T) {
	for name, store := range map[string]*index.Store{
		"city":    GenerateCity(benchCity),
		"scatter": Generate(Spec{NumObjects: 5, Levels: 3, Placement: Zipf, Seed: 9}).Store,
	} {
		got, err := load(t, writeSegment(t, store, index.SegmentScene{Levels: 3}, 0))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameStore(t, got, store)
	}
}

// TestLoadWithoutFinals: a loaded store holds coefficients only; its
// objects have no base or final mesh, and its base verts come from the
// segment.
func TestLoadWithoutFinals(t *testing.T) {
	orig := Generate(Spec{NumObjects: 2, Levels: 2, Seed: 10})
	got, err := load(t, writeSegment(t, orig.Store, index.SegmentScene{Levels: 2}, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, obj := range got.Objects {
		if obj.Final != nil || obj.Base != nil || obj.J != 2 {
			t.Fatalf("object %d: final %v, base %v, J %d; want coefficients and J 2 only", i, obj.Final != nil, obj.Base != nil, obj.J)
		}
	}
	if got.BaseVerts() == 0 || got.BaseVerts() != orig.Store.BaseVerts() {
		t.Fatalf("base verts %d, want %d", got.BaseVerts(), orig.Store.BaseVerts())
	}
}

// TestSaveLoadFile: a segment file records its scene — levels, shards
// and registry order — and a missing file does not open.
func TestSaveLoadFile(t *testing.T) {
	want := index.SegmentScene{Levels: 2, Shards: 4, Order: 3}
	path := writeSegment(t, Generate(Spec{NumObjects: 3, Levels: 2, Seed: 11}).Store, want, 0)
	ps, err := index.OpenPaged(path, index.PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if ps.Scene() != want || ps.NumObjects() != 3 {
		t.Fatalf("scene %+v over %d objects, want %+v over 3", ps.Scene(), ps.NumObjects(), want)
	}
	if _, err := load(t, filepath.Join(filepath.Dir(path), "missing.seg")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestLoadRejectsCorruption: a flipped byte in a page fails the load
// with persist.ErrCorrupt; a flipped footer byte or a truncation fails
// the open.
func TestLoadRejectsCorruption(t *testing.T) {
	path := writeSegment(t, Generate(Spec{NumObjects: 2, Levels: 2, Seed: 12}).Store, index.SegmentScene{Levels: 2}, 4096)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	try := func(data []byte) error {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := load(t, path)
		return err
	}
	bad := append([]byte(nil), full...)
	bad[4096+8+5] ^= 0xFF // inside page 1
	if err := try(bad); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("a corrupt page loaded: %v", err)
	}
	bad = append([]byte(nil), full...)
	bad[len(bad)-20] ^= 0xFF // inside the footer
	if err := try(bad); err == nil {
		t.Error("a corrupt footer opened")
	}
	for _, frac := range []int{4, 3, 2} {
		if err := try(full[:len(full)/frac]); err == nil {
			t.Errorf("truncation at %d accepted", len(full)/frac)
		}
	}
}

// TestLoadedDatasetServes: a loaded store answers index searches as the
// store it was written from does — the same ids, node reads and wire
// records.
func TestLoadedDatasetServes(t *testing.T) {
	orig := Generate(Spec{NumObjects: 4, Levels: 2, Seed: 13})
	got, err := load(t, writeSegment(t, orig.Store, index.SegmentScene{Levels: 2}, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := index.ShardedConfig{Shards: 4}
	a, b := index.NewSharded(orig.Store, index.XYW, cfg), index.NewSharded(got, index.XYW, cfg)
	space := orig.Spec.Space
	for _, w := range []float64{0, 0.5, 0.9} {
		q := index.Query{Region: space, WMin: w, WMax: 1}
		wantIDs, wantIO := a.Search(q)
		gotIDs, gotIO := b.Search(q)
		if len(wantIDs) == 0 || len(gotIDs) != len(wantIDs) || gotIO != wantIO {
			t.Fatalf("w ≥ %g: %d ids in %d reads, want %d in %d", w, len(gotIDs), gotIO, len(wantIDs), wantIO)
		}
		gw, _, _ := got.NewPins().AppendRecords(nil, gotIDs)
		ww, _, _ := orig.Store.NewPins().AppendRecords(nil, wantIDs)
		if !bytes.Equal(gw, ww) {
			t.Fatalf("w ≥ %g: the loaded store's records differ", w)
		}
	}
}
