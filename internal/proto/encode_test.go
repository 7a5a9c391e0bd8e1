package proto

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultdisk"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/retrieval"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// TestEncodeRunsMatchRecords: encode appends the records through
// Pins.AppendRecords — a copy of each run of consecutive ids out of a
// resident store's wire array, a conversion of each page record over a
// paged one — and the
// frame must be the one the wire encoder gives for the ids' coefficients
// one at a time, over both stores. The id sets mix single ids with runs:
// one runs up to the store's last id, one is the whole store (a run
// across every object boundary), random ones end there or short of it,
// and, laid out on the paged copy's 31-record pages, runs cross a page
// boundary inside one band, cross from one band to the next, and cover
// the segment's short last page. Last, a run over a page that reads
// corrupt must withhold exactly that page's ids on the paged copy: cut
// from the response, counted as dropped and forgotten from the
// delivered set.
func TestEncodeRunsMatchRecords(t *testing.T) {
	d := workload.Generate(workload.Spec{NumObjects: 8, Levels: 3, Seed: 5})
	store := d.Store
	path := filepath.Join(t.TempDir(), "scene.seg")
	if err := index.BuildSegment(path, store, d.Spec.Levels, 4000); err != nil {
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
	ps, err := index.NewPagedSegment(seg, index.PagedConfig{CacheBytes: 4 * 4000, Debug: true, RetryMax: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	conn := func(src index.CoefficientSource) *serverConn {
		srv := retrieval.NewServer(src, index.NewSharded(src, index.XYW, index.ShardedConfig{}))
		return &serverConn{
			s:     NewMultiServer(engine.NewRegistry(), nil),
			scene: &engine.Scene{Source: src, Server: srv},
			sess:  &engine.Lineage{Session: retrieval.NewSession(srv)},
		}
	}
	conns := map[string]*serverConn{"resident": conn(store), "paged": conn(ps)}
	records := func(ids []int64) []byte {
		frame := beginResponseFrame(nil, len(ids))
		for _, id := range ids {
			w := index.MustCoeff(store, id).Wire()
			frame = wavelet.AppendWire(frame, &w)
		}
		return frame
	}
	span := func(lo, hi int64) []int64 {
		var ids []int64
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		return ids
	}

	n := store.NumCoeffs()
	cases := [][]int64{{n - 1}, {0, 1, 2, 5, 9, 10, 64, n - 3, n - 2, n - 1}, span(0, n)}
	rng := rand.New(rand.NewSource(3))
	for len(cases) < 40 {
		var ids []int64
		for id := rng.Int63n(64); id < n; id += 2 + rng.Int63n(40) {
			run := int64(1)
			if rng.Intn(2) == 0 {
				run += rng.Int63n(70)
			}
			for end := min(id+run, n); id < end; id++ {
				ids = append(ids, id)
			}
		}
		if rng.Intn(2) == 0 && ids[len(ids)-1] != n-1 {
			ids = append(ids, n-4, n-3, n-2, n-1)
		}
		cases = append(cases, ids)
	}
	// Runs a few ids either side of every page and band boundary of the
	// paged layout, which holds a band's ids in ascending order: where
	// id+1 is not on id's page, the run crosses to the next page of the
	// band or to another band.
	last := seg.NumPages() - 1
	for id := int64(0); id+1 < n; id++ {
		if ps.PageOf(id+1) != ps.PageOf(id) {
			cases = append(cases, span(max(id-2, 0), min(id+3, n)))
		}
	}
	var onLast []int64
	for id := range n {
		if ps.PageOf(id) == last {
			onLast = append(onLast, id)
		}
	}
	if int64(len(onLast)) >= int64(seg.RecordsPerPage()) {
		t.Fatalf("vacuous: the last page holds %d of %d records", len(onLast), seg.RecordsPerPage())
	}
	cases = append(cases, span(onLast[0], onLast[len(onLast)-1]+1), onLast)

	var singles, runs int
	for i, ids := range cases {
		want := records(ids)
		for k, id := range ids {
			switch {
			case k > 0 && ids[k-1] == id-1:
			case k+1 < len(ids) && ids[k+1] == id+1:
				runs++
			default:
				singles++
			}
		}
		for name, c := range conns {
			resp := retrieval.Response{IDs: slices.Clone(ids)}
			if w := c.encode(&resp); w != 0 || resp.Dropped != 0 || !slices.Equal(resp.IDs, ids) {
				t.Fatalf("case %d, %s: %d withheld, dropped %d, %d of %d ids kept", i, name, w, resp.Dropped, len(resp.IDs), len(ids))
			}
			if !bytes.Equal(c.frame, want) {
				t.Fatalf("case %d, %s: the frame differs from the records one at a time (%d vs %d bytes)", i, name, len(c.frame), len(want))
			}
		}
	}
	if singles == 0 || runs < 100 {
		t.Fatalf("vacuous: %d single ids, %d runs", singles, runs)
	}

	// A corrupt page in the middle of a run of delivered ids.
	bad := last / 2
	fd.SetCorrupt(seg.PageOffset(bad), int64(seg.PageSize()))
	var onBad, kept []int64
	ids := span(0, n)
	for _, id := range ids {
		if ps.PageOf(id) == bad {
			onBad = append(onBad, id)
		} else {
			kept = append(kept, id)
		}
	}
	c := conns["paged"]
	c.sess.Session = retrieval.RestoreSession(c.scene.Server, ids)
	resp := retrieval.Response{IDs: slices.Clone(ids)}
	if w := c.encode(&resp); w != len(onBad) || resp.Dropped != int64(len(onBad)) || !slices.Equal(resp.IDs, kept) {
		t.Fatalf("run over corrupt page %d: %d withheld, dropped %d, %d ids kept; want %d, %d and %d", bad, w, resp.Dropped, len(resp.IDs), len(onBad), len(onBad), len(kept))
	}
	if !bytes.Equal(c.frame, records(kept)) {
		t.Fatalf("run over corrupt page %d: the frame is not the other pages' records", bad)
	}
	for _, id := range ids {
		if c.sess.Session.Has(id) == slices.Contains(onBad, id) {
			t.Fatalf("id %d (on page %d) delivered = %v after the encode", id, ps.PageOf(id), c.sess.Session.Has(id))
		}
	}
	if st := ps.PagerStats(); st.Quarantined != 1 || st.PagesPinned != 0 {
		t.Fatalf("pager after the corrupt run: %+v", st)
	}
}
