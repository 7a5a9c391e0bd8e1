package retrieval

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/hotcache"
)

// TestDeliveredMatchesMapModel drives a Delivered and a map[int64]bool
// through the same random Add/Has/Del/Len/IDs sequence, emptying both now
// and then. The id pool mixes a dense run, both sides of page
// boundaries, and one sparse id beyond 2³², so spine growth, lazy pages,
// untouched gaps and recycled pages are all exercised.
func TestDeliveredMatchesMapModel(t *testing.T) {
	pool := []int64{0, 1, 63, 64, 4095, 4096, 4097, 8191, 8192, 1 << 20, 1<<32 + 4095, 1<<32 + 4096, -1, -4096}
	for id := int64(300); id < 700; id++ {
		pool = append(pool, id)
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var d Delivered
		model := make(map[int64]bool)
		for step := 0; step < 20000; step++ {
			id := pool[rng.Intn(len(pool))]
			switch rng.Intn(4) {
			case 0, 1:
				isNew := id >= 0 && !model[id]
				if got := d.Add(id); got != isNew {
					t.Fatalf("seed %d step %d: Add(%d) = %v, model says new = %v", seed, step, id, got, isNew)
				}
				if id >= 0 {
					model[id] = true
				}
			case 2:
				d.Del(id) // often absent: a no-op in both
				delete(model, id)
			case 3:
				if got := d.Has(id); got != model[id] {
					t.Fatalf("seed %d step %d: Has(%d) = %v, model %v", seed, step, id, got, model[id])
				}
			}
			if step%4999 == 4998 {
				d.reset()
				clear(model)
			}
			if d.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len %d, model %d", seed, step, d.Len(), len(model))
			}
			if step%997 == 0 {
				want := make([]int64, 0, len(model))
				for id := range model {
					want = append(want, id)
				}
				slices.Sort(want)
				if got := d.IDs(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: IDs has %d ids, model %d (or order differs)", seed, step, len(got), len(want))
				}
			}
		}
	}
}

// TestDeliveredZeroValue pins that queries on the empty set, and Del of
// an id whose page was never allocated, touch nothing.
func TestDeliveredZeroValue(t *testing.T) {
	var d Delivered
	if d.Has(0) || d.Has(1<<40) || d.Len() != 0 || len(d.IDs()) != 0 {
		t.Fatal("zero Delivered is not empty")
	}
	d.Del(1 << 40)
	if d.pages != nil {
		t.Fatal("Del of an absent id grew the spine")
	}
	d.Add(4096)
	d.Del(0) // in range of the spine, page 0 never allocated
	if d.pages[0] != nil || d.Len() != 1 {
		t.Fatal("Del of an absent id allocated a page or changed Len")
	}
}

// TestSessionDeliveredIDsRoundTrip pins the journal's view of a session:
// DeliveredIDs is ascending (byte-identical journals depend on it) and
// RestoreSession(DeliveredIDs()) rebuilds the same set, so both sessions
// answer the next frame identically. Ids the store does not hold are
// dropped on restore.
func TestSessionDeliveredIDsRoundTrip(t *testing.T) {
	srv := testServer(t, 6, 31)
	sess := NewSession(srv)
	sess.Retrieve([]SubQuery{{Region: geom.R2(0, 0, 600, 600), WMin: 0.3, WMax: 1}})
	sess.Retrieve([]SubQuery{{Region: geom.R2(300, 300, 1000, 1000), WMin: 0.1, WMax: 1}})
	ids := sess.DeliveredIDs()
	if len(ids) == 0 || len(ids) != sess.Delivered() {
		t.Fatalf("DeliveredIDs has %d ids, session holds %d", len(ids), sess.Delivered())
	}
	if !slices.IsSorted(ids) {
		t.Fatal("DeliveredIDs is not ascending")
	}
	sess.Forget(ids[:len(ids)/2])
	ids = sess.DeliveredIDs()

	junk := append(slices.Clone(ids), -5, srv.Store().NumCoeffs(), 1<<62)
	restored := RestoreSession(srv, junk)
	if !slices.Equal(restored.DeliveredIDs(), ids) {
		t.Fatalf("restored session holds %d ids, original %d", restored.Delivered(), len(ids))
	}
	next := []SubQuery{{Region: geom.R2(0, 0, 1000, 1000), WMin: 0, WMax: 1}}
	if a, b := sess.Retrieve(next), restored.Retrieve(next); !respEqual(a, b) {
		t.Fatalf("restored session answered %d ids, original %d", len(b.IDs), len(a.IDs))
	}
}

// BenchmarkExecuteMerge measures one frame's merge at the mix measured on
// the benchmark's walk.mem workload: a single sub-query whose ~2 000 raw
// hits are 70 % already delivered. The hot cache answers the search, so
// the time is the merge's; each iteration forgets what it delivered, so
// every iteration filters and adds the same ids.
func BenchmarkExecuteMerge(b *testing.B) {
	srv := testShardedServer(b, 8, 29, 4)
	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	subs := []SubQuery{{Region: geom.R2(0, 0, 1000, 1000), WMin: 0, WMax: 1}}
	raw := srv.Execute(subs, nil).IDs
	if len(raw) < 2000 {
		b.Fatalf("only %d raw hits", len(raw))
	}
	held := slices.Clone(raw)
	rand.New(rand.NewSource(1)).Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	held = held[:len(held)*7/10]
	sess := RestoreSession(srv, held)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := sess.RetrieveScratch(subs)
		sess.Forget(resp.IDs)
	}
}

// TestDeliveredResetKeepsPages: a reset set is empty, and filling it
// again over as many pages allocates nothing — the released session a
// new connection draws starts with its pages.
func TestDeliveredResetKeepsPages(t *testing.T) {
	var d Delivered
	ids := []int64{0, 4095, 4096, 70000, 1 << 22}
	for _, id := range ids {
		d.Add(id)
	}
	d.reset()
	if d.Len() != 0 || len(d.IDs()) != 0 {
		t.Fatalf("reset set holds %d ids", d.Len())
	}
	for id := int64(0); id < 1<<22+1; id += 997 {
		if d.Has(id) {
			t.Fatalf("reset set has %d", id)
		}
	}
	moved := []int64{8192, 12288, 16384, 20480}
	allocs := testing.AllocsPerRun(10, func() {
		for _, id := range moved {
			d.Add(id)
		}
		d.reset()
	})
	if allocs != 0 {
		t.Fatalf("refilling a reset set allocated %.0f times, want 0", allocs)
	}
}
