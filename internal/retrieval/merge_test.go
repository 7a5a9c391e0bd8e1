package retrieval

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/faultdisk"
	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/stats"
	"repro/internal/wavelet"
)

// mergeReference is the merge as one id at a time: delivered-set lookup,
// filter, budget cut and delivered-set insert per raw hit, each
// sub-query's words expanded into ids first. It is the specification
// the word-at-a-time merge is held to, field for field.
func (s *Server) mergeReference(subs []SubQuery, results []subResult, delivered *Delivered, limit int64, coeffs coeffReader, resp *Response) mergeTally {
	var t mergeTally
	var withheld Delivered
	for i := range subs {
		r := &results[i]
		if !r.ran {
			continue
		}
		resp.IO += r.io
		resp.Queries++
		ids := index.AppendIDs(nil, r.words)
		t.rawHits += int64(len(ids))
		for _, id := range ids {
			if delivered != nil && delivered.Has(id) {
				t.suppressed = true
				continue
			}
			if subs[i].Filter != nil {
				pos, err := coeffs.Pos(id)
				if err != nil {
					t.suppressed = true
					t.faultWithheld++
					if delivered == nil || withheld.Add(id) {
						resp.Dropped++
					}
					continue
				}
				if !subs[i].Filter(pos) {
					t.suppressed = true
					continue
				}
			}
			if limit >= 0 && int64(len(resp.IDs)) >= limit {
				t.suppressed = true
				if delivered == nil || withheld.Add(id) {
					resp.Dropped++
				}
				continue
			}
			if delivered != nil {
				delivered.Add(id)
			}
			resp.IDs = append(resp.IDs, id)
		}
	}
	return t
}

// executeReference is execute with mergeReference in place of merge and
// no stats: the same searches, pins, HotRef rule and byte count.
func (s *Server) executeReference(subs []SubQuery, delivered *Delivered, maxBytes int64) Response {
	results := make([]subResult, len(subs))
	var cur index.Cursor
	s.searchAll(subs, results, &cur)
	limit := int64(-1)
	if maxBytes > 0 {
		limit = maxBytes / wavelet.WireBytes
	}
	pins := s.store.NewPins()
	defer pins.Release()
	var resp Response
	t := s.mergeReference(subs, results, delivered, limit, pins, &resp)
	if len(subs) == 1 && results[0].hot && !t.suppressed {
		resp.Hot = HotRef{Valid: true, Query: s.queryOf(&subs[0])}
	}
	resp.Bytes = int64(len(resp.IDs)) * wavelet.WireBytes
	return resp
}

// sameResponse reports the first field in which two responses differ.
func sameResponse(got, want Response) string {
	switch {
	case !slices.Equal(got.IDs, want.IDs):
		return "IDs"
	case got.Bytes != want.Bytes:
		return "Bytes"
	case got.IO != want.IO:
		return "IO"
	case got.Queries != want.Queries:
		return "Queries"
	case got.Dropped != want.Dropped:
		return "Dropped"
	case got.Hot != want.Hot:
		return "Hot"
	}
	return ""
}

// randBudget draws the budgets the merge's cut must get right: unlimited,
// below one record, exactly a whole number of 64-id words, inside a word,
// and anywhere.
func randBudget(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1 + rng.Int63n(wavelet.WireBytes-1)
	case 2:
		return int64(1+rng.Intn(8)) * 64 * wavelet.WireBytes
	case 3:
		return int64(64*rng.Intn(8)+1+rng.Intn(63)) * wavelet.WireBytes
	default:
		return rng.Int63n(2000 * wavelet.WireBytes)
	}
}

// overlappingFrame draws a frame whose sub-queries overlap one another —
// sometimes as outright duplicates — so the same ids reach the merge
// from several sub-queries; sometimes with a half-space Filter.
func overlappingFrame(rng *rand.Rand) []SubQuery {
	subs := randSubs(rng)
	if rng.Intn(3) == 0 {
		subs = append(subs, subs[rng.Intn(len(subs))])
	}
	if rng.Intn(3) == 0 {
		cut := rng.Float64() * 1000
		subs[rng.Intn(len(subs))].Filter = func(p geom.Vec3) bool { return p.X < cut }
	}
	return subs
}

// TestExecuteMatchesReference holds execute's word-at-a-time merge to
// mergeReference over random frames: multi-sub-query frames with
// overlapping regions and duplicate hits, every budget shape, with and
// without a delivered set, with and without a Filter, over an in-memory
// store with the hot cache wired (so HotRef is compared too) and over a
// paged store with quarantined pages (so fault-withheld ids share words
// with delivered ones).
func TestExecuteMatchesReference(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		srv, oracle := testShardedServer(t, 8, 41, 4), testShardedServer(t, 8, 41, 4)
		srv.SetHotCache(hotcache.New(hotcache.Config{}))
		oracle.SetHotCache(hotcache.New(hotcache.Config{}))
		checkAgainstReference(t, srv, oracle, 400, 43)
	})
	t.Run("paged quarantine", func(t *testing.T) {
		srv := faultyPagedServer(t)
		checkAgainstReference(t, srv, srv, 300, 47)
	})
}

// checkAgainstReference runs the same random requests through execute on
// srv and executeReference on oracle (srv itself when searching has no
// side effects), each with its own delivered set, and fails at the first
// response or delivered set that differs.
func checkAgainstReference(t *testing.T, srv, oracle *Server, steps int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// A recurring pool beside fresh frames, so the hot cache has repeats
	// to answer; its first frame is a lone unfiltered window, the one
	// shape that may carry a HotRef.
	pool := [][]SubQuery{{{Region: geom.R2(200, 200, 800, 800), WMin: 0.1, WMax: 1}}}
	for len(pool) < 4 {
		pool = append(pool, overlappingFrame(rng))
	}
	var sc Scratch
	dA, dB := new(Delivered), new(Delivered)
	var hot, dropped int
	for step := 0; step < steps; step++ {
		if rng.Intn(40) == 0 {
			dA, dB = new(Delivered), new(Delivered)
		}
		subs := overlappingFrame(rng)
		if rng.Intn(2) == 0 {
			subs = pool[rng.Intn(len(pool))]
		}
		a, b := dA, dB
		if rng.Intn(4) == 0 {
			a, b = nil, nil
		}
		budget := randBudget(rng)
		got := srv.Execute(subs, a, &sc, budget)
		want := oracle.executeReference(subs, b, budget)
		if f := sameResponse(got, want); f != "" {
			t.Fatalf("step %d (%d subs, budget %d, delivered %v): %s differs: got %d ids dropped %d hot %v, reference %d ids dropped %d hot %v",
				step, len(subs), budget, a != nil, f, len(got.IDs), got.Dropped, got.Hot.Valid, len(want.IDs), want.Dropped, want.Hot.Valid)
		}
		if a != nil && !slices.Equal(a.IDs(), b.IDs()) {
			t.Fatalf("step %d: delivered sets differ: %d vs %d ids", step, a.Len(), b.Len())
		}
		if got.Hot.Valid {
			hot++
		}
		if got.Dropped > 0 {
			dropped++
		}
	}
	faulted := srv.st.Load(stats.RetrievalCoeffsWithheld)
	_, paged := srv.store.(*index.PagedStore)
	if dropped == 0 || (srv.hot != nil && hot == 0) || (paged && faulted == 0) {
		t.Fatalf("vacuous run: %d responses dropped ids, %d were hot, %d ids fault-withheld", dropped, hot, faulted)
	}
}

// faultyPagedServer serves a paged copy of a small scene through a
// faultdisk reader, indexed while the disk was healthy, with every third
// of a run of 512-byte pages (four records each) then corrupted: a 64-id
// word of the delivered set spans sixteen pages, so faulted and healthy
// ids share words.
func faultyPagedServer(t *testing.T) *Server {
	t.Helper()
	mem := testShardedServer(t, 6, 53, 4)
	path := filepath.Join(t.TempDir(), "scene.seg")
	if err := index.BuildSegment(path, mem.Store(), 3, 512); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	fd := faultdisk.New(f, faultdisk.Config{})
	seg, err := persist.NewSegment(fd, fi.Size())
	if err != nil {
		t.Fatal(err)
	}
	ps, err := index.NewPagedSegment(seg, index.PagedConfig{CacheBytes: 1 << 16, RetryMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	srv := NewServer(ps, index.NewSharded(ps, index.XYW, index.ShardedConfig{Shards: 4}))
	srv.SetStats(stats.New())
	for p := seg.NumPages() / 4; p < seg.NumPages()*3/4; p += 3 {
		fd.SetCorrupt(seg.PageOffset(p), int64(seg.PageSize()))
	}
	return srv
}

// stubSource is a coefficient source of arbitrary size whose positions
// and page faults are functions of the id, so the merge can be driven
// with synthetic hits: X is id mod 5, and ids ≡ 3 (mod 7) sit on an
// unreadable page.
type stubSource struct{ index.CoefficientSource }

func (stubSource) Pos(id int64) (geom.Vec3, error) {
	if id%7 == 3 {
		return geom.Vec3{}, index.ErrPageUnavailable
	}
	return geom.Vec3{X: float64(id % 5)}, nil
}

// hitRuns decodes fuzz bytes into strictly ascending id runs: 0 ends a
// sub-query's run, 255 jumps a page ahead, and any other byte is the gap
// to the next id — mostly within one 64-id word or the next.
func hitRuns(data []byte) [][]int64 {
	runs := [][]int64{nil}
	id := int64(-1)
	for _, b := range data {
		switch b {
		case 0:
			runs = append(runs, nil)
			id = -1
		case 255:
			id += 4096
		default:
			id += int64(b)
			runs[len(runs)-1] = append(runs[len(runs)-1], id)
		}
	}
	return runs
}

// FuzzExecuteMerge compares the word merge with mergeReference on
// synthetic frames: random ascending id runs folded into words (one run
// per sub-query, the same ids often reaching several), a random
// delivered set or none, a random budget, which often cuts inside a
// word, and optionally a Filter over the stub source, which rejects and
// faults bits inside the words.
func FuzzExecuteMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 70, 0, 2, 2, 60, 255, 1}, []byte{3, 1, 9}, int16(-1), uint8(0))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 2, 1, 2}, []byte{2, 2, 2}, int16(3), uint8(2))
	f.Add([]byte{5, 5, 5, 5, 0, 5, 5, 5, 5, 0, 64, 64}, []byte{}, int16(0), uint8(1))
	f.Add([]byte{1, 1, 1, 200, 0, 1, 1, 1, 200}, []byte{1, 1}, int16(4), uint8(3))
	// A filtered hit the client already holds, on an unreadable page.
	f.Add([]byte{4, 1, 3}, []byte{4}, int16(-1), uint8(2))
	var srv Server
	f.Fuzz(func(t *testing.T, hits, pre []byte, budget int16, flags uint8) {
		runs := hitRuns(hits)
		subs := make([]SubQuery, len(runs))
		results := make([]subResult, len(runs))
		for i, ids := range runs {
			results[i] = subResult{words: index.AppendWords(nil, ids), io: int64(len(ids)), ran: true}
			if flags&2 != 0 && i%2 == 0 {
				subs[i].Filter = func(p geom.Vec3) bool { return p.X != 0 }
			}
		}
		var dA, dB *Delivered
		if flags&1 == 0 {
			dA, dB = new(Delivered), new(Delivered)
			for _, ids := range hitRuns(pre) {
				for _, id := range ids {
					dA.Add(id)
					dB.Add(id)
				}
			}
		}
		// Only an id the client does not hold can be withheld.
		var unheld Delivered
		for _, ids := range runs {
			for _, id := range ids {
				if dA == nil || !dA.Has(id) {
					unheld.Add(id)
				}
			}
		}
		limit := max(int64(budget), -1)
		var got, want Response
		gt := srv.merge(subs, results, dA, limit, stubSource{}, &got)
		wt := srv.mergeReference(subs, results, dB, limit, stubSource{}, &want)
		if f := sameResponse(got, want); f != "" || gt != wt {
			t.Fatalf("%s differs: got %v dropped %d %+v, reference %v dropped %d %+v", f, got.IDs, got.Dropped, gt, want.IDs, want.Dropped, wt)
		}
		if dA != nil && got.Dropped > int64(unheld.Len()) {
			t.Fatalf("dropped %d, but the client lacks only %d of the hits", got.Dropped, unheld.Len())
		}
		if dA != nil && !slices.Equal(dA.IDs(), dB.IDs()) {
			t.Fatalf("delivered sets differ: %v vs %v", dA.IDs(), dB.IDs())
		}
	})
}

// TestMergeSkipsHeldIDsUnderFilter: a filtered hit the client already
// holds is never read, so a fault on its page withholds nothing —
// Dropped is what the fault-free merge would have delivered beyond the
// cut, and that merge delivers a held id to nobody.
func TestMergeSkipsHeldIDsUnderFilter(t *testing.T) {
	subs := []SubQuery{{Filter: func(geom.Vec3) bool { return true }}}
	results := []subResult{{words: index.AppendWords(nil, []int64{3, 4, 10}), ran: true}} // 3 and 10 sit on unreadable pages
	var srv Server
	for name, merge := range map[string]func([]SubQuery, []subResult, *Delivered, int64, coeffReader, *Response) mergeTally{
		"merge": srv.merge, "reference": srv.mergeReference,
	} {
		delivered := new(Delivered)
		delivered.Add(3)
		var resp Response
		tally := merge(subs, results, delivered, -1, stubSource{}, &resp)
		if resp.Dropped != 1 || tally.faultWithheld != 1 || !slices.Equal(resp.IDs, []int64{4}) {
			t.Fatalf("%s: ids %v dropped %d fault-withheld %d, want [4], 1 and 1 (id 10 only)",
				name, resp.IDs, resp.Dropped, tally.faultWithheld)
		}
	}
}
