package retrieval

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/wavelet"
)

// ringPlan builds a priority-ordered multi-band plan by hand (the shape
// internal/abr's PlanViewport emits): an inner box and the surrounding
// ring, coarse band first, fine band after. The ABR planner itself is
// exercised against a live server in internal/abr's integration test —
// importing abr here would cycle the test binary.
func ringPlan(q geom.Rect2, viewer geom.Vec2) []SubQuery {
	inner := geom.RectAround(viewer, q.Width()/3).Intersect(q)
	outer := q.Difference(inner)
	var subs []SubQuery
	for _, band := range []struct{ lo, hi float64 }{{0.6, 1}, {0.1, 0.6}} {
		subs = append(subs, SubQuery{Region: inner, WMin: band.lo, WMax: band.hi})
		for _, r := range outer {
			subs = append(subs, SubQuery{Region: r, WMin: band.lo, WMax: band.hi})
		}
	}
	return subs
}

// TestExecuteBudgetPrefixOfUnlimited: a budgeted response is exactly the
// prefix of the unbudgeted response at the same cut, the remainder is
// counted in Dropped, and withheld coefficients stay retrievable (not
// marked delivered).
func TestExecuteBudgetPrefixOfUnlimited(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		srv := testServer(t, 8, seed)
		q := geom.R2(0, 0, 1000, 1000)
		subs := ringPlan(q, geom.V2(400, 600))

		full := srv.Execute(subs, new(Delivered), nil, 0)
		if len(full.IDs) < 10 {
			t.Fatalf("seed %d: only %d coefficients; test needs a real workload", seed, len(full.IDs))
		}
		for _, cutCoeffs := range []int{0, 1, len(full.IDs) / 3, len(full.IDs) - 1, len(full.IDs)} {
			delivered := new(Delivered)
			budget := int64(cutCoeffs) * wavelet.WireBytes
			if cutCoeffs == 0 {
				budget = 1 // sub-record budget delivers nothing
			}
			got := srv.Execute(subs, delivered, nil, budget)
			want := full.IDs[:cutCoeffs]
			if len(got.IDs) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got.IDs, want)) {
				t.Fatalf("seed %d cut %d: budgeted response is not the unbudgeted prefix", seed, cutCoeffs)
			}
			if got.Dropped != int64(len(full.IDs)-cutCoeffs) {
				t.Fatalf("seed %d cut %d: Dropped = %d, want %d", seed, cutCoeffs, got.Dropped, len(full.IDs)-cutCoeffs)
			}
			if got.Bytes != int64(len(got.IDs))*wavelet.WireBytes {
				t.Fatalf("seed %d cut %d: Bytes = %d for %d ids", seed, cutCoeffs, got.Bytes, len(got.IDs))
			}
			if got.Bytes > budget {
				t.Fatalf("seed %d cut %d: response %d bytes exceeds budget %d", seed, cutCoeffs, got.Bytes, budget)
			}
			if delivered.Len() != len(got.IDs) {
				t.Fatalf("seed %d cut %d: delivered set has %d entries for %d delivered ids — withheld coefficients must stay retrievable",
					seed, cutCoeffs, delivered.Len(), len(got.IDs))
			}
			// IO and Queries account the full search work either way.
			if got.IO != full.IO || got.Queries != full.Queries {
				t.Fatalf("seed %d cut %d: IO/Queries %d/%d, want %d/%d", seed, cutCoeffs, got.IO, got.Queries, full.IO, full.Queries)
			}
		}
	}
}

// TestExecuteBudgetDeterministic: same request + same budget ⇒ identical
// response, on fresh allocations or on scratch — the property the wire
// protocol's budgeted frames rely on.
func TestExecuteBudgetDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		srv := testServer(t, 6, int64(trial+1))
		q := geom.R2(0, 0, 1000, 1000)
		viewer := geom.V2(rng.Float64()*1000, rng.Float64()*1000)
		subs := ringPlan(q, viewer)
		budget := int64(rng.Intn(200)) * wavelet.WireBytes

		first := srv.Execute(subs, new(Delivered), nil, budget)
		again := srv.Execute(subs, new(Delivered), nil, budget)
		var sc Scratch
		scratch := srv.Execute(subs, new(Delivered), &sc, budget)

		if !reflect.DeepEqual(first.IDs, again.IDs) || first.Dropped != again.Dropped {
			t.Fatalf("trial %d: repeated budgeted execution diverged", trial)
		}
		if !reflect.DeepEqual(first.IDs, scratch.IDs) || first.Dropped != scratch.Dropped {
			t.Fatalf("trial %d: scratch budgeted execution diverged", trial)
		}
	}
}

// TestExecuteBudgetFollowsPriorityOrder: under a tight budget the
// delivered ids decompose as full deliveries of the plan's leading
// sub-queries, at most one split sub-query, and nothing after it.
func TestExecuteBudgetFollowsPriorityOrder(t *testing.T) {
	srv := testServer(t, 8, 3)
	q := geom.R2(0, 0, 1000, 1000)
	subs := ringPlan(q, geom.V2(500, 500))

	// Per-sub delivery counts at unlimited budget (shared delivered set
	// reproduces the merge's dedup behaviour sub-by-sub).
	fullPer := make([]int, len(subs))
	delivered := new(Delivered)
	total := 0
	for i, s := range subs {
		r := srv.Execute([]SubQuery{s}, delivered, nil, 0)
		fullPer[i] = len(r.IDs)
		total += len(r.IDs)
	}

	budgetCoeffs := total / 4
	resp := srv.Execute(subs, new(Delivered), nil, int64(budgetCoeffs)*wavelet.WireBytes)
	if len(resp.IDs) != budgetCoeffs {
		t.Fatalf("tight budget delivered %d of %d budgeted coefficients", len(resp.IDs), budgetCoeffs)
	}

	// Walk the plan: leading sub-queries deliver in full, at most one is
	// split, everything after contributes nothing.
	rem := len(resp.IDs)
	splitSeen := false
	for i, n := range fullPer {
		if rem >= n {
			rem -= n
			continue
		}
		if rem > 0 {
			if splitSeen {
				t.Fatalf("sub %d: second partial sub-query — cut is not a prefix", i)
			}
			splitSeen = true
			rem = 0
		} else if splitSeen && n > 0 {
			// past the cut: nothing more may be delivered — implied by
			// rem == 0 and the prefix equality pinned above.
			break
		}
	}
	if rem != 0 {
		t.Fatalf("delivered ids do not decompose along the plan order")
	}
}

// TestExecuteBudgetUnlimitedMatchesExecute: every maxBytes <= 0 is the
// unlimited Execute, Hot validity included.
func TestExecuteBudgetUnlimitedMatchesExecute(t *testing.T) {
	srv := testServer(t, 5, 4)
	sub := []SubQuery{{Region: geom.R2(0, 0, 1000, 1000), WMin: 0.2, WMax: 1}}
	a := srv.Execute(sub, nil, nil, 0)
	b := srv.Execute(sub, nil, nil, -1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("unlimited budget diverged from Execute:\n%+v\n%+v", a, b)
	}
}

// TestExecuteBudgetInvalidatesHotRef: a truncated single-sub response
// must not carry a valid HotRef — its id set is not the cache entry's.
func TestExecuteBudgetInvalidatesHotRef(t *testing.T) {
	srv := testServer(t, 5, 5)
	sub := []SubQuery{{Region: geom.R2(0, 0, 1000, 1000), WMin: 0, WMax: 1}}
	full := srv.Execute(sub, nil, nil, 0)
	if len(full.IDs) < 2 {
		t.Fatalf("workload too small")
	}
	got := srv.Execute(sub, nil, nil, int64(len(full.IDs)/2)*wavelet.WireBytes)
	if got.Hot.Valid {
		t.Fatalf("truncated response carries a valid HotRef")
	}
}

// TestBudgetStatsReconcile: budgeted execution records requested vs
// served bytes and withheld coefficients exactly.
func TestBudgetStatsReconcile(t *testing.T) {
	srv := testServer(t, 5, 6)
	st := stats.New()
	srv.SetStats(st)
	sub := []SubQuery{{Region: geom.R2(0, 0, 1000, 1000), WMin: 0, WMax: 1}}
	full := srv.Execute(sub, nil, nil, 1<<40)
	budget := int64(len(full.IDs)/2) * wavelet.WireBytes
	resp := srv.Execute(sub, nil, nil, budget)

	snap := st.Snapshot()
	if snap.Get(stats.RetrievalBudgetRequests) != 2 {
		t.Fatalf("BudgetRequests = %d, want 2", snap.Get(stats.RetrievalBudgetRequests))
	}
	if snap.Get(stats.RetrievalBudgetBytesAsked) != 1<<40+budget {
		t.Fatalf("BudgetBytesRequested = %d", snap.Get(stats.RetrievalBudgetBytesAsked))
	}
	if snap.Get(stats.RetrievalBudgetBytesServed) != full.Bytes+resp.Bytes {
		t.Fatalf("BudgetBytesServed = %d, want %d", snap.Get(stats.RetrievalBudgetBytesServed), full.Bytes+resp.Bytes)
	}
	if snap.Get(stats.RetrievalTruncated) != 1 || snap.Get(stats.RetrievalCoeffsDropped) != resp.Dropped {
		t.Fatalf("truncation counters %d/%d, want 1/%d", snap.Get(stats.RetrievalTruncated), snap.Get(stats.RetrievalCoeffsDropped), resp.Dropped)
	}
}
