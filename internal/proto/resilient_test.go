package proto

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/retrieval"
	"repro/internal/rtree"
	"repro/internal/stats"
	"repro/internal/workload"
)

// startHardenedServer is startTestServer with its own stats collector
// and configurable limits, for the fault-tolerance tests.
func startHardenedServer(t *testing.T, configure func(*Server)) (addr string, d *workload.Dataset, srv *Server, st *stats.Stats, shutdown func()) {
	t.Helper()
	d = workload.Generate(workload.Spec{NumObjects: 8, Levels: 3, Seed: 5})
	idx := index.NewMotionAware(d.Store, index.XYW, rtree.Config{})
	st = stats.New()
	srv = NewServer(retrieval.NewServer(d.Store, idx), d.Spec.Levels, t.Logf)
	srv.SetStats(st)
	if configure != nil {
		configure(srv)
	}
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
	return lis.Addr().String(), d, srv, st, func() {
		srv.Close()
		<-done
	}
}

// TestFaultRecoveryConvergence is the acceptance test for the
// fault-tolerance layer: a ResilientClient driven over a faultnet link
// with seeded connection drops and byte corruption must end a standard
// motion trajectory with exactly the meshes of a fault-free client —
// byte-identical vertices, identical coefficient counts, no
// duplicate-apply divergence — while the stats layer reconciles every
// resume against the server's view.
func TestFaultRecoveryConvergence(t *testing.T) {
	// A denser dataset and slower speeds than the other tests: enough
	// traffic (~70 KB) for several injected faults, while the largest
	// single frame (a worst-case post-miss wholesale re-fetch, ~27 KB)
	// still fits under the smallest drop interval — so every frame can
	// complete on a fresh connection and the run always converges.
	d := workload.Generate(workload.Spec{NumObjects: 40, Levels: 3, Seed: 5})
	idx := index.NewMotionAware(d.Store, index.XYW, rtree.Config{})
	stServer := stats.New()
	srv := NewServer(retrieval.NewServer(d.Store, idx), d.Spec.Levels, t.Logf)
	srv.SetStats(stServer)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(lis) }()
	defer func() { srv.Close(); <-done }()
	addr := lis.Addr().String()

	space := d.Store.Bounds().XY()
	frames := soakTrajectory(42, 60, space)
	for i := range frames {
		frames[i].speed *= 0.3
	}

	// Fault-free oracle run.
	oracle, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if _, err := oracle.Frame(f.q, f.speed); err != nil {
			t.Fatalf("oracle frame %d: %v", i, err)
		}
	}
	oracle.Close()

	// Faulty run: drops roughly every 30–60 KB of traffic, a bit flipped
	// in the read stream roughly every 20–50 KB. Both are drawn from the
	// seeded source, so the run is reproducible.
	stClient := stats.New()
	dialer := faultnet.NewDialer(addr, faultnet.Config{
		Seed:            1,
		DropAfterMin:    30_000,
		DropAfterMax:    60_000,
		CorruptAfterMin: 20_000,
		CorruptAfterMax: 50_000,
	})
	dialer.SetStats(stClient)
	rc, err := DialResilient(ResilientConfig{
		Dial:         dialer.Dial,
		FrameTimeout: 5 * time.Second,
		MaxAttempts:  12,
		BackoffBase:  time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		Seed:         7,
		Stats:        stClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i, f := range frames {
		if _, err := rc.Frame(f.q, f.speed); err != nil {
			t.Fatalf("frame %d did not survive injected faults: %v", i, err)
		}
	}

	// The link actually misbehaved.
	if faults := stClient.Load(stats.LinkFaults); faults == 0 {
		t.Fatal("no faults injected; the test exercised nothing")
	}
	if dialer.Dials() < 2 {
		t.Fatalf("client never reconnected (%d dials)", dialer.Dials())
	}
	t.Logf("faults=%d dials=%d retries=%d resumes=%d replans=%d",
		stClient.Load(stats.LinkFaults), dialer.Dials(), rc.Retries, rc.Resumes, rc.Replans)

	// Convergence: every object's reconstruction is byte-identical to the
	// fault-free oracle's.
	c := rc.Client()
	oracleObjs := oracle.Objects()
	if len(c.Objects()) != len(oracleObjs) {
		t.Fatalf("object sets diverged: %d != %d", len(c.Objects()), len(oracleObjs))
	}
	for _, id := range oracleObjs {
		om, _ := oracle.Mesh(id)
		gm, ok := c.Mesh(id)
		if !ok {
			t.Fatalf("object %d missing after faulty run", id)
		}
		if c.CoeffCount(id) != oracle.CoeffCount(id) {
			t.Fatalf("object %d: %d coefficients, oracle has %d",
				id, c.CoeffCount(id), oracle.CoeffCount(id))
		}
		if om.NumVerts() != gm.NumVerts() {
			t.Fatalf("object %d topology diverged", id)
		}
		for i := range om.Verts {
			if om.Verts[i] != gm.Verts[i] {
				t.Fatalf("object %d vertex %d diverged: %v != %v",
					id, i, gm.Verts[i], om.Verts[i])
			}
		}
	}

	// Stats reconciliation. The client's own counters match its totals
	// exactly; the server may have answered resume attempts whose replies
	// were lost in transit, so its view is an upper bound.
	cs, ss := stClient.Snapshot(), stServer.Snapshot()
	if cs.Get(stats.ClientResumes) != rc.Resumes || cs.Get(stats.ClientReplans) != rc.Replans {
		t.Fatalf("client stats %d/%d hit/miss, client counted %d/%d",
			cs.Get(stats.ClientResumes), cs.Get(stats.ClientReplans), rc.Resumes, rc.Replans)
	}
	hits, misses := ss.Get(stats.ProtoResumeHits), ss.Get(stats.ProtoResumeMisses)
	if hits < rc.Resumes {
		t.Fatalf("server confirmed %d resumes, client saw %d", hits, rc.Resumes)
	}
	if hits+misses < rc.Resumes+rc.Replans {
		t.Fatalf("server answered %d resume attempts, client completed %d",
			hits+misses, rc.Resumes+rc.Replans)
	}
	if cs.Get(stats.ClientRetries) != rc.Retries || cs.Get(stats.ClientTimeouts) != rc.Timeouts {
		t.Fatalf("client stats retries/timeouts %d/%d, client counted %d/%d",
			cs.Get(stats.ClientRetries), cs.Get(stats.ClientTimeouts), rc.Retries, rc.Timeouts)
	}
}

// TestResumeRollback exercises the one-frame rollback directly: a
// client that loses a response mid-flight resumes and receives exactly
// the coefficients the dead connection swallowed.
func TestResumeRollback(t *testing.T) {
	addr, d, srv, _, shutdown := startHardenedServer(t, nil)
	defer shutdown()

	space := d.Store.Bounds().XY()
	q1 := geom.RectAround(space.Center(), 300)
	q2 := q1.Translate(geom.V2(80, 40))

	// Oracle: both frames over a clean connection.
	oracle, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if _, err := oracle.Frame(q1, 0.3); err != nil {
		t.Fatal(err)
	}
	n2, err := oracle.Frame(q2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if n2 == 0 {
		t.Fatal("second oracle frame delivered nothing; rollback untested")
	}

	// Victim: frame 1 clean, then frame 2's request reaches the server
	// but the connection dies before the response is read.
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Frame(q1, 0.3); err != nil {
		t.Fatal(err)
	}
	subs := c.planner.PlanFrame(q2, 0.1)
	if err := c.w.WriteRequest(Request{Subs: subs}); err != nil {
		t.Fatal(err)
	}
	c.conn.Close() // response lost: server is now one frame ahead

	// The server parks the session once it notices the dead peer.
	waitParked(t, srv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := c.Reconnect(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("resume missed; expected a cache hit with rollback")
	}
	if _, err := c.Frame(q2, 0.1); err != nil {
		t.Fatal(err)
	}
	if c.Coefficients != oracle.Coefficients {
		t.Fatalf("retried session delivered %d coefficients, oracle %d",
			c.Coefficients, oracle.Coefficients)
	}
	for _, id := range oracle.Objects() {
		if c.CoeffCount(id) != oracle.CoeffCount(id) {
			t.Fatalf("object %d: %d coefficients, oracle has %d",
				id, c.CoeffCount(id), oracle.CoeffCount(id))
		}
	}
	c.Close()
}

// TestResumeMissReplans covers the fallback path: when the server no
// longer holds the session (cache disabled), Reconnect reports a miss
// and the next frame re-covers the whole window, converging anyway.
func TestResumeMissReplans(t *testing.T) {
	addr, d, _, stServer, shutdown := startHardenedServer(t, func(s *Server) {
		s.SetResumeCache(0, time.Minute) // every resume misses
	})
	defer shutdown()

	space := d.Store.Bounds().XY()
	q := geom.RectAround(space.Center(), 300)

	oracle, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if _, err := oracle.Frame(q, 0.2); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Frame(q, 0.2); err != nil {
		t.Fatal(err)
	}
	c.conn.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := c.Reconnect(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("resume hit with a disabled cache")
	}
	// The re-planned frame re-fetches the window; duplicates are applied
	// idempotently, so the reconstruction still matches the oracle.
	if _, err := c.Frame(q, 0.2); err != nil {
		t.Fatal(err)
	}
	for _, id := range oracle.Objects() {
		om, _ := oracle.Mesh(id)
		gm, ok := c.Mesh(id)
		if !ok || om.NumVerts() != gm.NumVerts() {
			t.Fatalf("object %d diverged after re-plan", id)
		}
		for i := range om.Verts {
			if om.Verts[i] != gm.Verts[i] {
				t.Fatalf("object %d vertex %d diverged after re-plan", id, i)
			}
		}
	}
	if stServer.Load(stats.ProtoResumeMisses) == 0 {
		t.Fatal("server recorded no resume miss")
	}
	c.Close()
}

// TestServerShedsAtSessionLimit checks max-sessions shedding: the
// connection over the limit is refused with a sanitized busy error and
// counted in stats.
func TestServerShedsAtSessionLimit(t *testing.T) {
	addr, _, _, st, shutdown := startHardenedServer(t, func(s *Server) {
		s.SetLimits(1, 0, 0)
	})
	defer shutdown()

	first, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	_, err = Dial(addr, nil)
	if err == nil {
		t.Fatal("second session admitted over the limit")
	}
	if !strings.Contains(err.Error(), "busy") {
		t.Fatalf("shed error not surfaced to the client: %v", err)
	}
	if st.Load(stats.ProtoShed) != 1 {
		t.Fatalf("shed = %d, want 1", st.Load(stats.ProtoShed))
	}
}

// TestIdleTimeoutParksSession checks that a silent client is
// disconnected after the idle timeout — and that its session lands in
// the resume cache, so waking up is cheap (resume, not re-plan).
func TestIdleTimeoutParksSession(t *testing.T) {
	addr, d, srv, _, shutdown := startHardenedServer(t, func(s *Server) {
		s.SetLimits(0, 50*time.Millisecond, time.Second)
	})
	defer shutdown()

	space := d.Store.Bounds().XY()
	q := geom.RectAround(space.Center(), 300)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := c.Frame(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Fatal("first frame delivered nothing")
	}

	// Go silent until the server kicks us.
	waitParked(t, srv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := c.Reconnect(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("idle-kicked session did not resume")
	}
	// Same window again: the resumed delivered-set filters everything.
	n2, err := c.Frame(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 {
		t.Fatalf("resumed session re-delivered %d coefficients", n2)
	}
	c.Close()
}

// TestGracefulDrainClose checks that Close wakes idle handlers and
// returns promptly instead of burning the whole drain budget.
func TestGracefulDrainClose(t *testing.T) {
	addr, _, srv, _, _ := startHardenedServer(t, func(s *Server) {
		s.SetDrainTimeout(10 * time.Second)
	})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()

	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v with only an idle client connected", d)
	}
}

// TestDegradedModeRaisesFloor drives the client against a server that
// accepts the handshake and then never answers, checking that repeated
// frame timeouts raise the degraded-mode resolution floor.
func TestDegradedModeRaisesFloor(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() { // hello-only server: reads frames, never replies to them
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				w, r := NewWriter(conn), NewReader(conn)
				w.WriteHello(Hello{Version: Version, Objects: 1, Levels: 1, BaseVerts: 6,
					Space: geom.R2(0, 0, 100, 100), Token: newToken()})
				for {
					tag, err := r.ReadTag()
					if err != nil {
						return
					}
					switch tag {
					case TagResume:
						if _, err := r.ReadResume(); err != nil {
							return
						}
						if err := w.WriteResumeFail("no session"); err != nil {
							return
						}
					case TagRequest:
						if _, err := r.ReadRequest(); err != nil {
							return
						}
						// Swallow the request: the client times out.
					default:
						return
					}
				}
			}(conn)
		}
	}()

	st := stats.New()
	rc, err := DialResilient(ResilientConfig{
		Dial:         func() (net.Conn, error) { return net.Dial("tcp", lis.Addr().String()) },
		FrameTimeout: 30 * time.Millisecond,
		MaxAttempts:  5,
		BackoffBase:  time.Millisecond,
		BackoffMax:   2 * time.Millisecond,
		DegradeAfter: 2,
		DegradeStep:  0.25,
		Stats:        st,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if _, err := rc.Frame(geom.R2(0, 0, 50, 50), 0.5); err == nil {
		t.Fatal("frame succeeded against a mute server")
	}
	if rc.DegradeFloor() <= 0 {
		t.Fatal("degraded mode never engaged")
	}
	// The floor raises the effective resolution cutoff the next frame
	// would request.
	if w := rc.mapSpeed(0); w < rc.DegradeFloor() {
		t.Fatalf("mapSpeed(0) = %v below the degraded floor %v", w, rc.DegradeFloor())
	}
	s := st.Snapshot()
	if s.Get(stats.ClientTimeouts) < 2 || s.Get(stats.ClientDegraded) < 1 || s.Get(stats.ClientRetries) < 2 {
		t.Fatalf("stats %+v missing timeout/degraded/retry counts", s)
	}
	if rc.Timeouts != s.Get(stats.ClientTimeouts) || rc.Retries != s.Get(stats.ClientRetries) {
		t.Fatalf("client totals %d/%d disagree with stats %d/%d",
			rc.Timeouts, rc.Retries, s.Get(stats.ClientTimeouts), s.Get(stats.ClientRetries))
	}
}

// TestTokens pins the session-token generator: non-zero, no collisions.
// (The resume cache's own bounds are tested in the engine package, which
// owns it now.)
func TestTokens(t *testing.T) {
	if newToken() == 0 {
		t.Fatal("zero token issued")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		tok := newToken()
		if seen[tok] {
			t.Fatal("token collision")
		}
		seen[tok] = true
	}
}

// waitParked waits until the server has parked one dropped session in
// its resume cache: a client that redials before that finds nothing to
// resume.
func waitParked(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.ResumeCacheLen() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions parked in the resume cache, want 1", srv.ResumeCacheLen())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
