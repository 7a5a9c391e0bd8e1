package proto

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/retrieval"
	"repro/internal/rtree"
	"repro/internal/stats"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// soakFrame is one step of a client trajectory.
type soakFrame struct {
	q     geom.Rect2
	speed float64
}

// soakTrajectory generates a deterministic random walk of query frames
// inside the space: consecutive frames overlap (exercising the
// rectangle-difference incremental path) and the speed jitters
// (exercising the detail-band path).
func soakTrajectory(seed int64, steps int, space geom.Rect2) []soakFrame {
	rng := rand.New(rand.NewSource(seed))
	side := 150 + rng.Float64()*100
	pos := geom.V2(
		space.Min.X+rng.Float64()*space.Width(),
		space.Min.Y+rng.Float64()*space.Height(),
	)
	frames := make([]soakFrame, steps)
	for i := range frames {
		pos = pos.Add(geom.V2(rng.Float64()*120-60, rng.Float64()*120-60))
		if pos.X < space.Min.X {
			pos.X = space.Min.X
		}
		if pos.X > space.Max.X {
			pos.X = space.Max.X
		}
		if pos.Y < space.Min.Y {
			pos.Y = space.Min.Y
		}
		if pos.Y > space.Max.Y {
			pos.Y = space.Max.Y
		}
		frames[i] = soakFrame{q: geom.RectAround(pos, side), speed: rng.Float64()}
	}
	return frames
}

// soakResult is what one wire client observed over its session.
type soakResult struct {
	delivered map[int64]bool
	requests  int64
	coeffs    int64
	bytes     int64
	io        int64
	err       error
}

// runSoakClient drives one full session over the wire: handshake, one
// request per trajectory frame (planned by Algorithm 1 in plan-only
// mode), orderly goodbye. It records every delivered coefficient id and
// fails on any duplicate — the per-session delivered-set isolation the
// server guarantees.
func runSoakClient(addr string, store *index.Store, frames []soakFrame) soakResult {
	res := soakResult{delivered: make(map[int64]bool)}
	fail := func(err error) soakResult { res.err = err; return res }

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fail(err)
	}
	defer conn.Close()
	r, w := NewReader(conn), NewWriter(conn)
	if tag, err := r.ReadTag(); err != nil || tag != TagHello {
		return fail(fmt.Errorf("handshake tag %d err %v", tag, err))
	}
	if _, err := r.ReadHello(); err != nil {
		return fail(err)
	}

	planner := retrieval.NewClient(nil, nil)
	for _, f := range frames {
		subs := planner.PlanFrame(f.q, f.speed)
		if err := w.WriteRequest(Request{Subs: subs}); err != nil {
			return fail(err)
		}
		tag, err := r.ReadTag()
		if err != nil {
			return fail(err)
		}
		if tag != TagResponse {
			if tag == TagError {
				msg, _ := r.ReadError()
				return fail(fmt.Errorf("server error: %s", msg))
			}
			return fail(fmt.Errorf("unexpected tag %d", tag))
		}
		resp, err := r.ReadResponse()
		if err != nil {
			return fail(err)
		}
		planner.Advance(f.q, f.speed)
		res.requests++
		res.io += resp.IO
		res.coeffs += int64(len(resp.Coeffs))
		res.bytes += int64(len(resp.Coeffs)) * wavelet.WireBytes
		for i := range resp.Coeffs {
			id := store.ID(resp.Coeffs[i].Object, resp.Coeffs[i].Vertex)
			if res.delivered[id] {
				return fail(fmt.Errorf("coefficient %d delivered twice to one session", id))
			}
			res.delivered[id] = true
		}
	}
	w.WriteBye()
	return res
}

// TestMultiClientSoak runs many concurrent sessions with overlapping
// trajectories against one server and checks, per client, delivered-set
// isolation and exact agreement with a serial single-threaded oracle;
// across clients, that the union of deliveries matches the oracle's
// union; and that the server's stats snapshot reconciles with the
// per-client sums. Run it under -race: it is the concurrency gate for
// the whole read path (proto → retrieval → index → rtree).
func TestMultiClientSoak(t *testing.T) {
	const clients = 10
	const steps = 25

	d := workload.Generate(workload.Spec{NumObjects: 8, Levels: 3, Seed: 77})
	idx := index.NewMotionAware(d.Store, index.XYW, rtree.Config{})
	st := stats.New()
	rsrv := retrieval.NewServer(d.Store, idx) // one serial search per sub-query, per session
	rsrv.SetStats(st)
	srv := NewServer(rsrv, d.Spec.Levels, t.Logf)
	srv.SetStats(st)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(lis); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	defer func() {
		srv.Close()
		<-done
	}()

	space := d.Spec.Space
	trajectories := make([][]soakFrame, clients)
	for i := range trajectories {
		trajectories[i] = soakTrajectory(1000+int64(i), steps, space)
	}

	results := make([]soakResult, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runSoakClient(lis.Addr().String(), d.Store, trajectories[i])
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.err != nil {
			t.Fatalf("client %d: %v", i, res.err)
		}
		if res.requests != steps {
			t.Fatalf("client %d issued %d of %d requests", i, res.requests, steps)
		}
	}

	// Serial oracle: replay each trajectory through an in-process session
	// on a serial-execution server over the same store and index.
	oracle := retrieval.NewServer(d.Store, idx)
	oracle.SetStats(nil)
	union := make(map[int64]bool)
	oracleUnion := make(map[int64]bool)
	for i, frames := range trajectories {
		session := retrieval.NewSession(oracle)
		client := retrieval.NewClient(session, nil)
		want := make(map[int64]bool)
		for _, f := range frames {
			resp, _ := client.Frame(f.q, f.speed)
			for _, id := range resp.IDs {
				want[id] = true
			}
		}
		got := results[i].delivered
		if len(got) != len(want) {
			t.Fatalf("client %d delivered %d coefficients, oracle %d", i, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("client %d missing coefficient %d", i, id)
			}
		}
		for id := range got {
			union[id] = true
		}
		for id := range want {
			oracleUnion[id] = true
		}
	}
	if len(union) != len(oracleUnion) {
		t.Fatalf("union of deliveries %d, oracle union %d", len(union), len(oracleUnion))
	}

	// Sessions are closed by Bye, but the server goroutines race the test
	// body; wait for the active gauge to drain before reconciling.
	deadline := time.Now().Add(5 * time.Second)
	for st.Load(stats.ProtoSessionsActive) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still active", st.Load(stats.ProtoSessionsActive))
		}
		time.Sleep(time.Millisecond)
	}

	// The stats snapshot must reconcile exactly with the per-client sums.
	var sumReq, sumCoeffs, sumBytes, sumIO int64
	for _, res := range results {
		sumReq += res.requests
		sumCoeffs += res.coeffs
		sumBytes += res.bytes
		sumIO += res.io
	}
	snap := st.Snapshot()
	if snap.Get(stats.RetrievalRequests) != sumReq {
		t.Errorf("stats requests %d, clients saw %d", snap.Get(stats.RetrievalRequests), sumReq)
	}
	if snap.Get(stats.RetrievalCoeffs) != sumCoeffs {
		t.Errorf("stats coeffs %d, clients received %d", snap.Get(stats.RetrievalCoeffs), sumCoeffs)
	}
	if snap.Get(stats.RetrievalBytes) != sumBytes {
		t.Errorf("stats bytes %d, clients received %d", snap.Get(stats.RetrievalBytes), sumBytes)
	}
	if snap.Get(stats.RetrievalNodeIO) != sumIO {
		t.Errorf("stats io %d, clients saw %d", snap.Get(stats.RetrievalNodeIO), sumIO)
	}
	if snap.Get(stats.ProtoSessionsOpened) != clients || snap.Get(stats.ProtoSessionsActive) != 0 {
		t.Errorf("stats sessions = %d/%d, want 0/%d",
			snap.Get(stats.ProtoSessionsActive), snap.Get(stats.ProtoSessionsOpened), clients)
	}
	if snap.Get(stats.ProtoErrors) != 0 {
		t.Errorf("stats recorded %d errors", snap.Get(stats.ProtoErrors))
	}
	lat, io := snap.H[stats.RetrievalExecuteNs], snap.H[stats.RetrievalRequestNodeIO]
	if lat.Count != sumReq || io.Count != sumReq {
		t.Errorf("histogram counts %d/%d, want %d",
			lat.Count, io.Count, sumReq)
	}
	if snap.Get(stats.RetrievalSubQueries) < sumReq {
		t.Errorf("sub-queries %d below request count %d", snap.Get(stats.RetrievalSubQueries), sumReq)
	}
	t.Logf("soak: %v", snap)
}
