package proto

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/retrieval"
	"repro/internal/workload"
)

// TestEncodeRunsMatchRecords: encode copies each run of consecutive ids
// out of a resident store's wire array with one append (Pins.Run), and
// the frame must be the one the ids' records give one at a time; a paged
// copy of the scene, which encodes record by record, must assemble the
// same bytes. The id sets mix single ids with runs: one runs up to the
// store's last id, one is the whole store (a run across every object
// boundary), and random ones end there or short of it.
func TestEncodeRunsMatchRecords(t *testing.T) {
	d := workload.Generate(workload.Spec{NumObjects: 8, Levels: 3, Seed: 5})
	store := d.Store
	path := filepath.Join(t.TempDir(), "scene.seg")
	if err := index.BuildSegment(path, store, d.Spec.Levels, 4096); err != nil {
		t.Fatal(err)
	}
	ps, err := index.OpenPaged(path, index.PagedConfig{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	conn := func(src index.CoefficientSource) *serverConn {
		srv := retrieval.NewServer(src, index.NewSharded(src, index.XYW, index.ShardedConfig{}))
		return &serverConn{
			s:     NewMultiServer(engine.NewRegistry(), nil),
			scene: &engine.Scene{Source: src, Server: srv},
			sess:  &engine.ResumeEntry{Session: retrieval.NewSession(srv)},
		}
	}
	conns := map[string]*serverConn{"resident": conn(store), "paged": conn(ps)}

	n := store.NumCoeffs()
	all := make([]int64, n)
	for i := range all {
		all[i] = int64(i)
	}
	cases := [][]int64{{n - 1}, {0, 1, 2, 5, 9, 10, 64, n - 3, n - 2, n - 1}, all}
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
	pins := store.NewPins()
	var singles, runs int
	for i, ids := range cases {
		want := beginResponseFrame(nil, len(ids))
		for k, id := range ids {
			rec, err := pins.Record(id)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, rec...)
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
	if singles == 0 || runs == 0 {
		t.Fatalf("vacuous: %d single ids, %d runs", singles, runs)
	}
}
