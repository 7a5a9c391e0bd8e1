package index_test

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// TestStoreRecordsMatchEncoder: for every id of a city store, the
// record the store's wire array holds is the wire encoder's output for
// the coefficient Coeff resolves.
func TestStoreRecordsMatchEncoder(t *testing.T) {
	store := workload.GenerateCity(workload.CitySpec{BlocksX: 4, BlocksY: 4, LotsPerBlock: 2, Levels: 3, Seed: 3})
	pins := store.NewPins()
	for id := range store.NumCoeffs() {
		rec, err := pins.Record(id)
		if err != nil {
			t.Fatal(err)
		}
		w := index.MustCoeff(store, id).Wire()
		if want := wavelet.AppendWire(nil, &w); !bytes.Equal(rec, want) {
			t.Fatalf("id %d: store record %x, encoder %x", id, rec, want)
		}
	}
}

// TestPagedRecordsMatchResident: a paged pin set's records are byte for
// byte the resident store's, for every id, read in ascending order and
// in a shuffled order that releases its pages every few ids, through a
// cache small enough to evict.
func TestPagedRecordsMatchResident(t *testing.T) {
	store := workload.GenerateCity(workload.CitySpec{BlocksX: 4, BlocksY: 4, LotsPerBlock: 2, Levels: 3, Seed: 3})
	path := filepath.Join(t.TempDir(), "city.seg")
	if err := index.BuildSegment(path, store, 3, 4096); err != nil {
		t.Fatal(err)
	}
	ps, err := index.OpenPaged(path, index.PagedConfig{CacheBytes: 8 * 4096, Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ids := make([]int64, store.NumCoeffs())
	for i := range ids {
		ids[i] = int64(i)
	}
	shuffled := append([]int64(nil), ids...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	resident, paged := store.NewPins(), ps.NewPins()
	defer paged.Release()
	for _, order := range [][]int64{ids, shuffled} {
		for i, id := range order {
			if i%5 == 0 {
				paged.Release()
			}
			want, err := resident.Record(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := paged.Record(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("id %d: paged record %x, resident %x", id, got, want)
			}
		}
	}
}
