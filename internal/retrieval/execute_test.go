package retrieval

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/stats"
)

// TestExecuteNilDeliveredAllowsDuplicates pins the two delivery modes:
// with a nil delivered set the same coefficient may be returned once per
// matching sub-query (RegionBytes relies on this raw accounting); with a
// session map every coefficient crosses at most once.
func TestExecuteNilDeliveredAllowsDuplicates(t *testing.T) {
	srv := testServer(t, 4, 13)
	srv.SetStats(nil)
	all := geom.R2(0, 0, 1000, 1000)
	subs := []SubQuery{
		{Region: all, WMin: 0, WMax: 1},
		{Region: all, WMin: 0, WMax: 1},
	}
	total := int(srv.Store().NumCoeffs())

	raw := srv.Execute(subs, nil)
	if len(raw.IDs) != 2*total {
		t.Fatalf("nil delivered: %d ids, want %d (every id twice)", len(raw.IDs), 2*total)
	}
	if raw.Queries != 2 {
		t.Fatalf("executed %d sub-queries", raw.Queries)
	}

	filtered := srv.Execute(subs, new(Delivered))
	if len(filtered.IDs) != total {
		t.Fatalf("deduplicated: %d ids, want %d", len(filtered.IDs), total)
	}
	seen := make(map[int64]bool, len(filtered.IDs))
	for _, id := range filtered.IDs {
		if seen[id] {
			t.Fatalf("id %d delivered twice through one delivered set", id)
		}
		seen[id] = true
	}
}

// TestExecuteFilterRejectionKeepsRetrievable asserts the invariant noted
// at the filter check in Execute: a coefficient rejected by a sub-query's
// Filter has not been sent, so it must NOT enter the delivered set and
// must remain retrievable by a later unfiltered query.
func TestExecuteFilterRejectionKeepsRetrievable(t *testing.T) {
	srv := testServer(t, 4, 14)
	srv.SetStats(nil)
	all := geom.R2(0, 0, 1000, 1000)
	delivered := new(Delivered)
	total := int(srv.Store().NumCoeffs())

	rejectAll := srv.Execute([]SubQuery{
		{Region: all, WMin: 0, WMax: 1, Filter: func(geom.Vec3) bool { return false }},
	}, delivered)
	if len(rejectAll.IDs) != 0 {
		t.Fatalf("reject-all filter delivered %d ids", len(rejectAll.IDs))
	}
	if delivered.Len() != 0 {
		t.Fatalf("reject-all filter marked %d ids delivered", delivered.Len())
	}

	// A half-space filter: the delivered set must hold exactly the accepted
	// side, and the follow-up unfiltered query must deliver the rest.
	west := func(p geom.Vec3) bool { return p.X < 500 }
	first := srv.Execute([]SubQuery{{Region: all, WMin: 0, WMax: 1, Filter: west}}, delivered)
	for _, id := range first.IDs {
		if !west(index.MustCoeff(srv.Store(), id).Pos) {
			t.Fatalf("filter leaked id %d east of the boundary", id)
		}
	}
	if delivered.Len() != len(first.IDs) {
		t.Fatalf("delivered set has %d ids, response had %d", delivered.Len(), len(first.IDs))
	}
	second := srv.Execute([]SubQuery{{Region: all, WMin: 0, WMax: 1}}, delivered)
	if len(first.IDs)+len(second.IDs) != total {
		t.Fatalf("split deliveries %d + %d, want %d", len(first.IDs), len(second.IDs), total)
	}
	for _, id := range second.IDs {
		if west(index.MustCoeff(srv.Store(), id).Pos) {
			t.Fatalf("id %d west of the boundary delivered twice", id)
		}
	}
}

// TestExecuteParallelMatchesSerial drives identical frame sequences
// through a serial server and a maximally parallel one: the responses
// must be byte-identical — same ids in the same order, same bytes, I/O
// and sub-query counts. This is the acceptance gate for the worker pool.
func TestExecuteParallelMatchesSerial(t *testing.T) {
	serial := testServer(t, 6, 15)
	serial.SetStats(nil)
	serial.SetParallelism(1)
	parallel := NewServer(serial.Store(), serial.Index())
	parallel.SetStats(nil)
	parallel.SetParallelism(8)

	// Batches mix overlapping windows, detail bands, degenerate regions,
	// inverted bands, and filtered sub-queries.
	batches := [][]SubQuery{
		{
			{Region: geom.R2(0, 0, 400, 400), WMin: 0, WMax: 1},
			{Region: geom.R2(200, 200, 600, 600), WMin: 0.2, WMax: 1},
			{Region: geom.R2(300, 0, 700, 300), WMin: 0, WMax: 0.5},
		},
		{
			{Region: geom.Rect2{Min: geom.V2(5, 5), Max: geom.V2(1, 1)}, WMin: 0, WMax: 1},
			{Region: geom.R2(0, 0, 1000, 1000), WMin: 0.7, WMax: 0.3},
			{Region: geom.R2(100, 100, 900, 900), WMin: 0.1, WMax: 0.9},
		},
		{
			{Region: geom.R2(0, 0, 1000, 1000), WMin: 0, WMax: 1,
				Filter: func(p geom.Vec3) bool { return p.Y < 450 }},
			{Region: geom.R2(0, 0, 1000, 1000), WMin: 0, WMax: 1},
			{Region: geom.R2(50, 50, 950, 950), WMin: 0, WMax: 1},
			{Region: geom.R2(400, 400, 500, 500), WMin: 0.3, WMax: 0.6},
			{Region: geom.R2(600, 100, 800, 700), WMin: 0, WMax: 0.2},
		},
	}
	dSerial := new(Delivered)
	dParallel := new(Delivered)
	for bi, subs := range batches {
		want := serial.Execute(subs, dSerial)
		got := parallel.Execute(subs, dParallel)
		if len(got.IDs) != len(want.IDs) {
			t.Fatalf("batch %d: parallel delivered %d ids, serial %d", bi, len(got.IDs), len(want.IDs))
		}
		for i := range want.IDs {
			if got.IDs[i] != want.IDs[i] {
				t.Fatalf("batch %d: id %d differs at position %d (parallel %d, serial %d)",
					bi, want.IDs[i], i, got.IDs[i], want.IDs[i])
			}
		}
		if got.Bytes != want.Bytes || got.IO != want.IO || got.Queries != want.Queries {
			t.Fatalf("batch %d: parallel %+v, serial %+v", bi, got, want)
		}
	}
}

// TestExecuteRecordsStats checks the per-request observability contract:
// one RecordRequest per Execute with reconciling totals, and degenerate
// sub-queries excluded from the executed count.
func TestExecuteRecordsStats(t *testing.T) {
	srv := testServer(t, 3, 16)
	st := stats.New()
	srv.SetStats(st)
	resp := srv.Execute([]SubQuery{
		{Region: geom.R2(0, 0, 1000, 1000), WMin: 0, WMax: 1},
		{Region: geom.Rect2{Min: geom.V2(1, 1), Max: geom.V2(0, 0)}, WMin: 0, WMax: 1},
	}, nil)
	snap := st.Snapshot()
	if snap.Requests != 1 {
		t.Fatalf("requests = %d", snap.Requests)
	}
	if snap.SubQueries != int64(resp.Queries) || resp.Queries != 1 {
		t.Fatalf("sub-queries = %d, response executed %d", snap.SubQueries, resp.Queries)
	}
	if snap.Coeffs != int64(len(resp.IDs)) || snap.Bytes != resp.Bytes || snap.IndexIO != resp.IO {
		t.Fatalf("stats %v do not reconcile with response %+v", snap, resp)
	}
	if snap.Latency.Count != 1 {
		t.Fatalf("latency histogram count = %d", snap.Latency.Count)
	}
}
