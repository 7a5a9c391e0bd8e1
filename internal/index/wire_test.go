package index_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/faultdisk"
	"repro/internal/index"
	"repro/internal/persist"
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
		rec, n, err := pins.AppendRecords(nil, []int64{id})
		if err != nil || n != 1 {
			t.Fatal(n, err)
		}
		w := index.MustCoeff(store, id).Wire()
		if want := wavelet.AppendWire(nil, &w); !bytes.Equal(rec, want) {
			t.Fatalf("id %d: store record %x, encoder %x", id, rec, want)
		}
	}
}

// appendRun reads the records of ids [lo, hi) through pins as the
// response encoder does: an id whose page is unreadable is skipped and
// reported.
func appendRun(t *testing.T, pins *index.Pins, out []byte, lo, hi int64) ([]byte, []int64) {
	t.Helper()
	ids := make([]int64, 0, hi-lo)
	for id := lo; id < hi; id++ {
		ids = append(ids, id)
	}
	var skipped []int64
	for len(ids) > 0 {
		var n int
		var err error
		out, n, err = pins.AppendRecords(out, ids)
		if ids = ids[n:]; err != nil {
			if !errors.Is(err, index.ErrPageUnavailable) {
				t.Fatalf("AppendRecords at id %d: %v", ids[0], err)
			}
			skipped = append(skipped, ids[0])
			ids = ids[1:]
		}
	}
	return out, skipped
}

// TestPagedRecordsMatchResident: a paged pin set converts its page
// records into byte for byte the resident store's wire records, through
// a cache small enough to evict, in Debug mode (a record read from an
// unpinned page would read 0xFF). Every id is read singly, in ascending
// order and in a shuffled order that releases its pages every few ids;
// then as runs of consecutive ids that cross a page boundary inside one
// band, that cross from one band to another, and that cover the
// segment's short last page; then as a run with a quarantined page in
// its middle, which must skip exactly that page's ids.
func TestPagedRecordsMatchResident(t *testing.T) {
	store := workload.GenerateCity(workload.CitySpec{BlocksX: 4, BlocksY: 4, LotsPerBlock: 2, Levels: 3, Seed: 3})
	path := filepath.Join(t.TempDir(), "city.seg")
	// 31 records a page, and 32 bytes of every page past its last record.
	if err := index.BuildSegment(path, store, 3, 4000); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fd := faultdisk.New(bytes.NewReader(data), faultdisk.Config{})
	seg, err := persist.NewSegment(fd, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := index.NewPagedSegment(seg, index.PagedConfig{CacheBytes: 8 * 4000, Debug: true, RetryMax: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	n, perPage, last := store.NumCoeffs(), int64(seg.RecordsPerPage()), seg.NumPages()-1
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	shuffled := append([]int64(nil), ids...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	resident, paged := store.NewPins(), ps.NewPins()
	defer paged.Release()
	same := func(what string, lo, hi int64) {
		t.Helper()
		got, skipped := appendRun(t, paged, nil, lo, hi)
		want, _ := appendRun(t, resident, nil, lo, hi)
		if len(skipped) > 0 || !bytes.Equal(got, want) {
			t.Fatalf("%s [%d, %d): paged records %x (skipped %v), resident %x", what, lo, hi, got, skipped, want)
		}
	}
	for _, order := range [][]int64{ids, shuffled} {
		for i, id := range order {
			if i%5 == 0 {
				paged.Release()
			}
			same("id", id, id+1)
		}
	}

	var pageRuns, bandRuns int
	for id := int64(0); id+1 < n; id++ {
		lo, hi := max(id-3, 0), min(id+4, n)
		switch slot := index.SlotOf(ps, id); {
		case index.SlotOf(ps, id+1) != slot+1:
			same("run across bands", lo, hi)
			bandRuns++
		case (slot+1)%perPage == 0:
			same("run across pages", lo, hi)
			pageRuns++
		}
		if id%97 == 0 {
			paged.Release()
		}
	}
	if pageRuns < 10 || bandRuns < 10 {
		t.Fatalf("vacuous: %d runs across a page boundary, %d across a band boundary", pageRuns, bandRuns)
	}
	var onLast []int64
	for id := range n {
		if ps.PageOf(id) == last {
			onLast = append(onLast, id)
		}
	}
	if int64(len(onLast)) >= perPage {
		t.Fatalf("vacuous: the last page holds %d of %d records", len(onLast), perPage)
	}
	paged.Release()
	same("the short last page's ids", onLast[0], onLast[len(onLast)-1]+1)
	same("the last ids", n-int64(len(onLast)), n)

	// A quarantined page in a run's middle: exactly its ids are skipped,
	// and every other record is still the resident one.
	paged.Release()
	bad := last / 2
	fd.SetCorrupt(seg.PageOffset(bad), int64(seg.PageSize()))
	var onBad []int64
	for id := range n {
		if ps.PageOf(id) == bad {
			onBad = append(onBad, id)
		}
	}
	lo, hi := max(onBad[0]-40, 0), min(onBad[len(onBad)-1]+41, n)
	got, skipped := appendRun(t, paged, nil, lo, hi)
	var want []byte
	for id := lo; id < hi; id++ {
		if !slices.Contains(onBad, id) {
			want, _ = appendRun(t, resident, want, id, id+1)
		}
	}
	if !slices.Equal(skipped, onBad) || !bytes.Equal(got, want) {
		t.Fatalf("run [%d, %d) over quarantined page %d: skipped %v, want %v; records equal: %v", lo, hi, bad, skipped, onBad, bytes.Equal(got, want))
	}
	paged.Release()
	if st := ps.PagerStats(); st.Quarantined != 1 || st.PagesPinned != 0 {
		t.Fatalf("pager after the quarantined run: %+v", st)
	}
}
