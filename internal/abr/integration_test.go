package abr

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/mesh"
	"repro/internal/retrieval"
	"repro/internal/rtree"
	"repro/internal/wavelet"
)

// planServer builds a retrieval server over n random buildings — the
// same workload shape the retrieval package tests use.
func planServer(t testing.TB, n int, seed int64) *retrieval.Server {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]*wavelet.Decomposition, n)
	for i := 0; i < n; i++ {
		ground := geom.V2(rng.Float64()*900+50, rng.Float64()*900+50)
		s := mesh.RandomBuilding(rng, ground, mesh.DefaultBuildingSpec())
		objs[i] = wavelet.Decompose(int32(i), mesh.BaseMeshFor(s), s, 3)
	}
	store := index.NewStore(objs)
	return retrieval.NewServer(store, index.NewMotionAware(store, index.XYW, rtree.Config{}))
}

// TestPlanTruncationKeepsNearDetail drives the real planner through
// budgeted execution: under a tight budget, truncation along the plan
// keeps near-viewer detail (deep w-bands close in, coarse bands
// everywhere) and withholds only the tail — far regions lose their fine
// bands, not their coarse structure.
func TestPlanTruncationKeepsNearDetail(t *testing.T) {
	srv := planServer(t, 10, 42)
	q := geom.R2(0, 0, 1000, 1000)
	viewer := geom.V2(500, 500)
	subs := PlanViewport(q, viewer, 0.05, 3)

	full := srv.Execute(subs, new(retrieval.Delivered), nil, 0)
	if len(full.IDs) < 100 {
		t.Fatalf("workload too small: %d coefficients", len(full.IDs))
	}
	budget := int64(len(full.IDs)/3) * wavelet.WireBytes
	resp := srv.Execute(subs, new(retrieval.Delivered), nil, budget)
	if resp.Dropped == 0 {
		t.Fatalf("tight budget did not truncate")
	}

	// Find the first sub-query whose coefficients were (partially)
	// withheld: everything delivered comes from plan positions at or
	// before it. The coarse full-frame coverage lives in the leading
	// cells, so every ring must retain coarse coefficients while only
	// trailing fine bands are cut.
	store := srv.Store()
	coarseLo := 0.05 + (1-0.05)*bandCuts[1]
	var nearFine, farCoarseMissing int
	delivered := make(map[int64]bool, len(resp.IDs))
	for _, id := range resp.IDs {
		delivered[id] = true
		c := index.MustCoeff(store, id)
		if c.Value >= coarseLo && geom.V2(c.Pos.X, c.Pos.Y).Dist(viewer) < 200 {
			nearFine++
		}
	}
	for _, id := range full.IDs {
		if delivered[id] {
			continue
		}
		c := index.MustCoeff(store, id)
		// A withheld coefficient in the top (coarse) band means a region
		// lost its structural layer while finer bands survived elsewhere —
		// the failure mode the ordering exists to prevent. The coarse band
		// is [coarseLo, 1] in plan terms.
		if c.Value >= coarseLo {
			farCoarseMissing++
		}
	}
	if nearFine == 0 {
		t.Fatalf("no near-viewer coarse/fine coefficients delivered under budget")
	}
	if farCoarseMissing > 0 {
		// Only legitimate if the budget was too small to even finish the
		// coarse layers; with a third of the full payload that cannot be
		// the case unless ordering is broken.
		coarseTotal := 0
		for _, id := range full.IDs {
			if index.MustCoeff(store, id).Value >= coarseLo {
				coarseTotal++
			}
		}
		if int64(coarseTotal)*wavelet.WireBytes <= budget {
			t.Fatalf("%d coarse-band coefficients withheld although the budget covered all %d — fine bands were served first",
				farCoarseMissing, coarseTotal)
		}
	}
}
