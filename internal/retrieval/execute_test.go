package retrieval

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/wavelet"
)

// TestExecuteNilDeliveredAllowsDuplicates pins the two delivery modes:
// with a nil delivered set the same coefficient may be returned once per
// matching sub-query; with a session map every coefficient crosses at
// most once.
func TestExecuteNilDeliveredAllowsDuplicates(t *testing.T) {
	srv := testServer(t, 4, 13)
	srv.SetStats(nil)
	all := geom.R2(0, 0, 1000, 1000)
	subs := []SubQuery{
		{Region: all, WMin: 0, WMax: 1},
		{Region: all, WMin: 0, WMax: 1},
	}
	total := int(srv.Store().NumCoeffs())

	raw := srv.Execute(subs, nil, nil, 0)
	if len(raw.IDs) != 2*total {
		t.Fatalf("nil delivered: %d ids, want %d (every id twice)", len(raw.IDs), 2*total)
	}
	if raw.Queries != 2 {
		t.Fatalf("executed %d sub-queries", raw.Queries)
	}

	filtered := srv.Execute(subs, new(Delivered), nil, 0)
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
	}, delivered, nil, 0)
	if len(rejectAll.IDs) != 0 {
		t.Fatalf("reject-all filter delivered %d ids", len(rejectAll.IDs))
	}
	if delivered.Len() != 0 {
		t.Fatalf("reject-all filter marked %d ids delivered", delivered.Len())
	}

	// A half-space filter: the delivered set must hold exactly the accepted
	// side, and the follow-up unfiltered query must deliver the rest.
	west := func(p geom.Vec3) bool { return p.X < 500 }
	first := srv.Execute([]SubQuery{{Region: all, WMin: 0, WMax: 1, Filter: west}}, delivered, nil, 0)
	for _, id := range first.IDs {
		if !west(index.MustCoeff(srv.Store(), id).Pos) {
			t.Fatalf("filter leaked id %d east of the boundary", id)
		}
	}
	if delivered.Len() != len(first.IDs) {
		t.Fatalf("delivered set has %d ids, response had %d", delivered.Len(), len(first.IDs))
	}
	second := srv.Execute([]SubQuery{{Region: all, WMin: 0, WMax: 1}}, delivered, nil, 0)
	if len(first.IDs)+len(second.IDs) != total {
		t.Fatalf("split deliveries %d + %d, want %d", len(first.IDs), len(second.IDs), total)
	}
	for _, id := range second.IDs {
		if west(index.MustCoeff(srv.Store(), id).Pos) {
			t.Fatalf("id %d west of the boundary delivered twice", id)
		}
	}
}

// TestExecuteRecordsStats checks the per-request observability contract:
// retrieval.requests counts each Execute, the other rows reconcile with
// the response, and degenerate sub-queries are excluded from the
// executed count. retrieval.raw_hits counts every index hit the merge
// saw: all of them delivered for a lone sub-query without a delivered
// set, and at least every delivered or budget-withheld one otherwise.
func TestExecuteRecordsStats(t *testing.T) {
	srv := testServer(t, 3, 16)
	st := stats.New()
	srv.SetStats(st)
	resp := srv.Execute([]SubQuery{
		{Region: geom.R2(0, 0, 1000, 1000), WMin: 0, WMax: 1},
		{Region: geom.Rect2{Min: geom.V2(1, 1), Max: geom.V2(0, 0)}, WMin: 0, WMax: 1},
	}, nil, nil, 0)
	snap := st.Snapshot()
	if snap.Get(stats.RetrievalRequests) != 1 {
		t.Fatalf("requests = %d", snap.Get(stats.RetrievalRequests))
	}
	if snap.Get(stats.RetrievalSubQueries) != int64(resp.Queries) || resp.Queries != 1 {
		t.Fatalf("sub-queries = %d, response executed %d", snap.Get(stats.RetrievalSubQueries), resp.Queries)
	}
	if snap.Get(stats.RetrievalCoeffs) != int64(len(resp.IDs)) || snap.Get(stats.RetrievalBytes) != resp.Bytes || snap.Get(stats.RetrievalNodeIO) != resp.IO {
		t.Fatalf("stats %v do not reconcile with response %+v", snap, resp)
	}
	if n := snap.H[stats.RetrievalExecuteNs].Count; n != 1 {
		t.Fatalf("latency histogram count = %d", n)
	}
	if raw := snap.Get(stats.RetrievalRawHits); raw != int64(len(resp.IDs)) {
		t.Fatalf("raw_hits = %d for a lone unfiltered sub-query delivering %d", raw, len(resp.IDs))
	}

	// Overlapping sub-queries against a delivered set under a budget: the
	// merge drops repeats and withholds the cut, and raw_hits covers both.
	delivered := new(Delivered)
	overlap := []SubQuery{
		{Region: geom.R2(0, 0, 600, 600), WMin: 0, WMax: 1},
		{Region: geom.R2(300, 300, 1000, 1000), WMin: 0, WMax: 1},
	}
	srv.Execute(overlap, delivered, nil, int64(len(resp.IDs)/3)*wavelet.WireBytes)
	srv.Execute(overlap, delivered, nil, int64(len(resp.IDs)/3)*wavelet.WireBytes)
	snap = st.Snapshot()
	raw, coeffs, dropped := snap.Get(stats.RetrievalRawHits), snap.Get(stats.RetrievalCoeffs), snap.Get(stats.RetrievalCoeffsDropped)
	if dropped == 0 || raw < coeffs+dropped {
		t.Fatalf("raw_hits %d, coeffs %d, coeffs_dropped %d: want raw_hits >= coeffs + coeffs_dropped > coeffs", raw, coeffs, dropped)
	}
}
