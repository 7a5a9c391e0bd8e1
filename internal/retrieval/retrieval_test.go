package retrieval

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/mesh"
	"repro/internal/rtree"
	"repro/internal/wavelet"
)

// testServer builds a server over n random buildings in a 1000×1000 space
// with the motion-aware xyw index.
func testServer(t testing.TB, n int, seed int64) *Server {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]*wavelet.Decomposition, n)
	for i := 0; i < n; i++ {
		ground := geom.V2(rng.Float64()*900+50, rng.Float64()*900+50)
		s := mesh.RandomBuilding(rng, ground, mesh.DefaultBuildingSpec())
		objs[i] = wavelet.Decompose(int32(i), mesh.BaseMeshFor(s), s, 3)
	}
	store := index.NewStore(objs)
	return NewServer(store, index.NewMotionAware(store, index.XYW, rtree.Config{}))
}

func TestIdentityMapping(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {2, 1},
	}
	for _, c := range cases {
		if got := Identity(c.in); got != c.want {
			t.Errorf("Identity(%v) = %v", c.in, got)
		}
	}
}

func TestFirstFrameRetrievesWholesale(t *testing.T) {
	srv := testServer(t, 5, 1)
	c := NewClient(NewSession(srv), nil)
	q := geom.R2(0, 0, 1000, 1000)
	resp, w := c.Frame(q, 0)
	if w != 0 {
		t.Fatalf("resolution = %v", w)
	}
	if int64(len(resp.IDs)) != srv.Store().NumCoeffs() {
		t.Fatalf("full-space slow frame delivered %d of %d", len(resp.IDs), srv.Store().NumCoeffs())
	}
	if resp.Bytes != srv.Store().SizeBytes() {
		t.Errorf("bytes = %d want %d", resp.Bytes, srv.Store().SizeBytes())
	}
	if resp.Queries != 1 {
		t.Errorf("first frame issued %d sub-queries", resp.Queries)
	}
}

func TestStationaryFrameRetrievesNothingNew(t *testing.T) {
	srv := testServer(t, 5, 2)
	c := NewClient(NewSession(srv), nil)
	q := geom.R2(100, 100, 600, 600)
	c.Frame(q, 0.3)
	resp, _ := c.Frame(q, 0.3)
	if len(resp.IDs) != 0 {
		t.Fatalf("repeat frame delivered %d coefficients", len(resp.IDs))
	}
	// A fully-contained frame at the same speed also needs nothing.
	resp, _ = c.Frame(geom.R2(200, 200, 500, 500), 0.3)
	if len(resp.IDs) != 0 {
		t.Fatalf("shrunken frame delivered %d coefficients", len(resp.IDs))
	}
}

func TestSlowdownFetchesDetailBand(t *testing.T) {
	srv := testServer(t, 5, 3)
	c := NewClient(NewSession(srv), nil)
	q := geom.R2(0, 0, 1000, 1000)
	c.Frame(q, 0.8) // coarse first pass
	resp, _ := c.Frame(q, 0.1)
	if len(resp.IDs) == 0 {
		t.Fatal("slowdown delivered nothing")
	}
	for _, id := range resp.IDs {
		cf := index.MustCoeff(srv.Store(), id)
		if cf.Value >= 0.8 {
			t.Fatalf("coefficient %v (w=%.3f) redelivered", id, cf.Value)
		}
		if cf.Value < 0.1 {
			t.Fatalf("coefficient %v (w=%.3f) below cutoff", id, cf.Value)
		}
	}
}

func TestSpeedupRetrievesNothingForOverlap(t *testing.T) {
	srv := testServer(t, 5, 4)
	c := NewClient(NewSession(srv), nil)
	q := geom.R2(0, 0, 1000, 1000)
	c.Frame(q, 0.1)
	resp, _ := c.Frame(q, 0.9) // speeding up: coarser is already present
	if len(resp.IDs) != 0 {
		t.Fatalf("speedup delivered %d coefficients", len(resp.IDs))
	}
}

func TestPlanFrameShapes(t *testing.T) {
	srv := testServer(t, 2, 5)
	c := NewClient(NewSession(srv), nil)
	q1 := geom.R2(0, 0, 100, 100)
	if subs := c.PlanFrame(q1, 0.5); len(subs) != 1 || subs[0].Region != q1 {
		t.Fatalf("first plan = %+v", subs)
	}
	c.Frame(q1, 0.5)
	// Diagonal move at same speed: only the L-shaped new region (2 rects).
	subs := c.PlanFrame(geom.R2(50, 50, 150, 150), 0.5)
	if len(subs) != 2 {
		t.Fatalf("diagonal plan = %+v", subs)
	}
	for _, s := range subs {
		if s.WMin != 0.5 || s.WMax != 1 {
			t.Fatalf("band = [%v,%v]", s.WMin, s.WMax)
		}
	}
	// Diagonal move while slowing: overlap band + 2 new rects.
	subs = c.PlanFrame(geom.R2(50, 50, 150, 150), 0.2)
	if len(subs) != 3 {
		t.Fatalf("slowing diagonal plan = %+v", subs)
	}
	if subs[0].WMin != 0.2 || subs[0].WMax != 0.5 {
		t.Fatalf("overlap band = [%v,%v]", subs[0].WMin, subs[0].WMax)
	}
	// Disjoint jump: wholesale.
	subs = c.PlanFrame(geom.R2(800, 800, 900, 900), 0.5)
	if len(subs) != 1 {
		t.Fatalf("disjoint plan = %+v", subs)
	}
}

// TestIncrementalEqualsOneShot is the union property from DESIGN.md: a
// client walking a sequence of frames ends up with exactly the set a fresh
// client gets from one-shot queries of the same frames at the same
// resolutions — no loss, no duplicates.
func TestIncrementalEqualsOneShot(t *testing.T) {
	srv := testServer(t, 10, 6)
	c := NewClient(NewSession(srv), nil)
	rng := rand.New(rand.NewSource(7))

	type frame struct {
		q geom.Rect2
		s float64
	}
	pos := geom.V2(300, 300)
	var frames []frame
	for i := 0; i < 25; i++ {
		pos = pos.Add(geom.V2(rng.Float64()*60-10, rng.Float64()*60-10))
		frames = append(frames, frame{q: geom.RectAround(pos, 250), s: rng.Float64()})
	}

	got := make(map[int64]bool)
	var total int
	for _, f := range frames {
		resp, _ := c.Frame(f.q, f.s)
		for _, id := range resp.IDs {
			if got[id] {
				t.Fatalf("coefficient %d delivered twice", id)
			}
			got[id] = true
		}
		total += len(resp.IDs)
	}

	// Reference: fresh session, one-shot query per frame, union.
	ref := NewSession(srv)
	for _, f := range frames {
		ref.Retrieve([]SubQuery{{Region: f.q, WMin: Identity(f.s), WMax: 1}})
	}
	if total != ref.Delivered() {
		t.Fatalf("incremental delivered %d, one-shot union %d", total, ref.Delivered())
	}
	for id := range got {
		if !ref.Has(id) {
			t.Fatalf("incremental delivered %d not in reference", id)
		}
	}
}

func TestIncrementalCheaperThanResend(t *testing.T) {
	// Moving a frame by 10% must deliver far less than re-sending the whole
	// window — the entire point of §IV.
	srv := testServer(t, 10, 8)
	c := NewClient(NewSession(srv), nil)
	q := geom.R2(100, 100, 600, 600)
	first, _ := c.Frame(q, 0.2)
	moved, _ := c.Frame(q.Translate(geom.V2(50, 0)), 0.2)
	if moved.Bytes*3 > first.Bytes {
		t.Errorf("incremental move cost %d vs initial %d", moved.Bytes, first.Bytes)
	}
}

func TestHigherSpeedRetrievesLessData(t *testing.T) {
	// Figure 8's premise at the protocol level.
	srv := testServer(t, 10, 9)
	q := geom.R2(200, 200, 800, 800)
	var prev int64 = 1 << 62
	for _, speed := range []float64{0.001, 0.25, 0.5, 0.75, 1.0} {
		c := NewClient(NewSession(srv), nil)
		resp, _ := c.Frame(q, speed)
		if resp.Bytes > prev {
			t.Fatalf("bytes grew with speed at %v: %d > %d", speed, resp.Bytes, prev)
		}
		prev = resp.Bytes
	}
}

// TestRegionBytes sizes a region with a nil delivered set: one window over
// the whole space at the finest cutoff reads the whole dataset, and the
// coarsest band alone is some but not all of it.
func TestRegionBytes(t *testing.T) {
	srv := testServer(t, 5, 10)
	all := geom.R2(0, 0, 1000, 1000)
	full := srv.Execute([]SubQuery{{Region: all, WMin: 0, WMax: 1}}, nil, nil, 0)
	if full.Bytes != srv.Store().SizeBytes() {
		t.Fatalf("full region bytes = %d want %d", full.Bytes, srv.Store().SizeBytes())
	}
	if full.IO < 1 {
		t.Fatal("no io counted")
	}
	coarse := srv.Execute([]SubQuery{{Region: all, WMin: 1, WMax: 1}}, nil, nil, 0)
	if coarse.Bytes >= full.Bytes || coarse.Bytes <= 0 {
		t.Fatalf("coarse bytes = %d", coarse.Bytes)
	}
}

func TestExecuteSkipsDegenerateSubQueries(t *testing.T) {
	srv := testServer(t, 2, 11)
	resp := srv.Execute([]SubQuery{
		{Region: geom.Rect2{Min: geom.V2(1, 1), Max: geom.V2(0, 0)}, WMin: 0, WMax: 1},
		{Region: geom.R2(0, 0, 10, 10), WMin: 0.9, WMax: 0.1},
	}, nil, nil, 0)
	if resp.Queries != 0 || len(resp.IDs) != 0 {
		t.Fatalf("degenerate sub-queries executed: %+v", resp)
	}
}

func TestClientReset(t *testing.T) {
	srv := testServer(t, 3, 12)
	c := NewClient(NewSession(srv), nil)
	q := geom.R2(0, 0, 500, 500)
	c.Frame(q, 0.5)
	c.Reset()
	subs := c.PlanFrame(q, 0.5)
	if len(subs) != 1 || subs[0].Region != q {
		t.Fatalf("post-reset plan = %+v", subs)
	}
	// But the session still filters: re-retrieval yields nothing new.
	resp, _ := c.Frame(q, 0.5)
	if len(resp.IDs) != 0 {
		t.Fatalf("reset caused %d re-deliveries", len(resp.IDs))
	}
}

func TestCustomSpeedMapping(t *testing.T) {
	srv := testServer(t, 3, 13)
	quadratic := func(s float64) float64 { return Identity(s * s) }
	c := NewClient(NewSession(srv), quadratic)
	_, w := c.Frame(geom.R2(0, 0, 100, 100), 0.5)
	if w != 0.25 {
		t.Fatalf("custom mapping gave %v", w)
	}
}
