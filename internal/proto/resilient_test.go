package proto

import (
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/retrieval"
	"repro/internal/rtree"
	"repro/internal/stats"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// startHardenedServer is startTestServer with its own stats collector
// (proto and retrieval rows) and configurable limits, for the
// fault-tolerance tests.
func startHardenedServer(t *testing.T, configure func(*Server)) (addr string, d *workload.Dataset, srv *Server, st *stats.Stats, shutdown func()) {
	t.Helper()
	d = workload.Generate(workload.Spec{NumObjects: 8, Levels: 3, Seed: 5})
	idx := index.NewMotionAware(d.Store, index.XYW, rtree.Config{})
	st = stats.New()
	rs := retrieval.NewServer(d.Store, idx)
	rs.SetStats(st)
	srv = NewServer(rs, d.Spec.Levels, t.Logf)
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
	// traffic (~70 KB) for several injected faults. The largest frame (a
	// worst-case post-miss wholesale re-fetch, ~27 KB) outgrows every
	// drop interval, so it must arrive as budgeted pieces.
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

	// Faulty run: drops every 8–16 KB of traffic, a bit flipped in the
	// read stream roughly every 20–50 KB. Both are drawn from the seeded
	// source, so the run is reproducible.
	stClient := stats.New()
	dialer := faultnet.NewDialer(addr, faultnet.Config{
		Seed:            1,
		DropAfterMin:    8_000,
		DropAfterMax:    16_000,
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
	t.Logf("faults=%d dials=%d retries=%d resumes=%d replans=%d pieces=%d",
		stClient.Load(stats.LinkFaults), dialer.Dials(), rc.Retries, rc.Resumes, rc.Replans, stClient.Load(stats.ClientPieces))
	if stClient.Load(stats.ClientPieces) == 0 {
		t.Fatal("no frame arrived in pieces; the drop window exercised nothing")
	}

	// Convergence: every object's reconstruction is byte-identical to the
	// fault-free oracle's.
	assertSameMeshes(t, oracle, rc.Client())

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
// disconnected after the idle timeout — and that its session is parked,
// so waking up is cheap (resume, not re-plan).
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

// TestResumeTakesOverLiveConnection pins the park-versus-resume race
// from the resuming side: a client whose old connection the server has
// not yet seen die presents its token on a second connection while the
// first is still open. The server must sever the first, wait for its
// park and adopt the session — not answer ResumeFail and force a
// re-plan.
func TestResumeTakesOverLiveConnection(t *testing.T) {
	addr, d, srv, st, shutdown := startHardenedServer(t, func(s *Server) {
		s.SetLimits(0, 0, time.Second)
	})
	defer shutdown()

	q := geom.RectAround(d.Store.Bounds().XY().Center(), 300)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n, err := c.Frame(q, 0.5); err != nil || n == 0 {
		t.Fatalf("first frame = %d, %v", n, err)
	}
	if parked(srv) != 0 {
		t.Fatal("a live session is already parked")
	}

	// Reconnect leaves the first connection open until the resume has
	// been answered.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := c.Reconnect(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatalf("resume of a live connection's token missed (%d misses)", st.Load(stats.ProtoResumeMisses))
	}
	if n, err := c.Frame(q, 0.5); err != nil || n != 0 {
		t.Fatalf("taken-over session re-delivered %d coefficients, %v", n, err)
	}
}

// TestParkedConnectionHoldsNoSession pins the order of a dying
// handler's park: its lineage leaves the live count as it parks, so a
// resume that takes the parked session at once is never counted beside
// the connection it left — SeverScene would report two sessions for
// one client. SeverScene returns only once the severed handler has
// parked.
func TestParkedConnectionHoldsNoSession(t *testing.T) {
	d := workload.Generate(workload.Spec{NumObjects: 8, Levels: 3, Seed: 5})
	srv := NewServer(retrieval.NewServer(d.Store, index.NewMotionAware(d.Store, index.XYW, rtree.Config{})), d.Spec.Levels, t.Logf)
	nc, peer := net.Pipe()
	defer peer.Close()
	scene := srv.Registry().Default()
	c := &serverConn{s: srv, nc: nc, w: NewWriter(nc), token: 7}
	go io.Copy(io.Discard, peer)
	if !c.bind(scene) {
		t.Fatal("greeting failed")
	}
	c.started = true
	scene.Sessions.Start(c.token)
	severed := make(chan int)
	go func() {
		n, err := srv.SeverScene(scene.Name)
		if err != nil {
			t.Error(err)
		}
		severed <- n
	}()
	// The handler's read fails on the severed connection; it parks.
	if _, err := c.nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("the severed connection still reads")
	}
	c.end(false)
	if n := <-severed; n != 1 {
		t.Fatalf("a started session counts %d live sessions, want 1", n)
	}
	if n := srv.SceneConns(scene.Name); n != 0 {
		t.Fatalf("a connection that parked its session counts %d live, want 0", n)
	}
	other := &serverConn{s: srv, nc: nopNetConn{}, w: NewWriter(io.Discard), token: 8}
	other.bind(scene)
	if _, ok := scene.Sessions.Resume(other.token, c.token, c.sess.Seq, 0); !ok {
		t.Fatal("the severed session was not parked")
	}
	if live, held := srv.SceneConns(scene.Name), parked(srv); live != 1 || held != 0 {
		t.Fatalf("after the resume %d live and %d parked, want the resumer alone", live, held)
	}
}

// nopNetConn is a connection whose close is a no-op.
type nopNetConn struct{ net.Conn }

func (nopNetConn) Close() error { return nil }

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

// TestMuteServerKeepsFrameWhole drives the client against a server that
// accepts the handshake and then never answers. Every attempt times out
// having received nothing, so no attempt may shrink into a budgeted
// piece: a silent link says nothing about the frame's size.
func TestMuteServerKeepsFrameWhole(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	var requests, budgeted atomic.Int64
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
						req, err := r.ReadRequest()
						if err != nil {
							return
						}
						requests.Add(1)
						if req.MaxBytes != 0 {
							budgeted.Add(1)
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
		Stats:        st,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if _, err := rc.Frame(geom.R2(0, 0, 50, 50), 0.5); err == nil {
		t.Fatal("frame succeeded against a mute server")
	}
	if requests.Load() == 0 {
		t.Fatal("the mute server saw no request")
	}
	if n := budgeted.Load(); n != 0 {
		t.Fatalf("%d of %d requests carried a byte budget; a frame that received nothing must stay whole", n, requests.Load())
	}
	s := st.Snapshot()
	if s.Get(stats.ClientTimeouts) < 2 || s.Get(stats.ClientRetries) < 2 {
		t.Fatalf("stats %+v missing timeout/retry counts", s)
	}
	if s.Get(stats.ClientPieces) != 0 || s.Get(stats.ClientSplitFrames) != 0 {
		t.Fatalf("a mute server split frames: %d pieces over %d frames", s.Get(stats.ClientPieces), s.Get(stats.ClientSplitFrames))
	}
	if rc.Timeouts != s.Get(stats.ClientTimeouts) || rc.Retries != s.Get(stats.ClientRetries) {
		t.Fatalf("client totals %d/%d disagree with stats %d/%d",
			rc.Timeouts, rc.Retries, s.Get(stats.ClientTimeouts), s.Get(stats.ClientRetries))
	}
}

// TestResilientFrameSplitsOversizedResponse is the short-frame
// regression: every connection of the link dies after the same fixed
// traffic volume, below what one wholesale frame needs. A whole-frame
// retry can never succeed there; the client must fetch the frame as
// budgeted pieces and end with the oracle's meshes. Over a plain link
// the same tour never sends a budgeted request.
func TestResilientFrameSplitsOversizedResponse(t *testing.T) {
	addr, d, _, stServer, shutdown := startHardenedServer(t, nil)
	defer shutdown()
	space := d.Store.Bounds().XY()
	frames := append(soakTrajectory(9, 8, space), soakFrame{q: space, speed: 0})
	const dropAfter = 20_000

	oracle, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	largest := 0
	for i, f := range frames {
		n, err := oracle.Frame(f.q, f.speed)
		if err != nil {
			t.Fatalf("oracle frame %d: %v", i, err)
		}
		largest = max(largest, n)
	}
	if whole := int64(largest) * wavelet.WireBytes; whole <= dropAfter {
		t.Fatalf("the largest frame (%d B) fits the %d B drop interval", whole, dropAfter)
	}

	tour := func(dial func() (net.Conn, error)) (*ResilientClient, *stats.Stats) {
		t.Helper()
		st := stats.New()
		rc, err := DialResilient(ResilientConfig{
			Dial:         dial,
			FrameTimeout: 5 * time.Second,
			MaxAttempts:  6,
			BackoffBase:  time.Millisecond,
			BackoffMax:   2 * time.Millisecond,
			Stats:        st,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range frames {
			if _, err := rc.Frame(f.q, f.speed); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		return rc, st
	}

	plain, _ := tour(func() (net.Conn, error) { return net.Dial("tcp", addr) })
	defer plain.Close()
	assertSameMeshes(t, oracle, plain.Client())
	if n := stServer.Load(stats.RetrievalBudgetRequests); n != 0 {
		t.Fatalf("a plain link sent %d budgeted requests, want 0", n)
	}

	dialer := faultnet.NewDialer(addr, faultnet.Config{Seed: 3, DropAfterMin: dropAfter, DropAfterMax: dropAfter})
	short, st := tour(dialer.Dial)
	defer short.Close()
	assertSameMeshes(t, oracle, short.Client())
	pieces, split := st.Load(stats.ClientPieces), st.Load(stats.ClientSplitFrames)
	if pieces == 0 || split == 0 {
		t.Fatalf("%d pieces over %d split frames; the oversized frame never arrived in pieces", pieces, split)
	}
	if asked := stServer.Load(stats.RetrievalBudgetRequests); asked < pieces {
		t.Fatalf("server saw %d budgeted requests, client received %d pieces", asked, pieces)
	}
	t.Logf("dials %d · pieces %d over %d split frames · retries %d", dialer.Dials(), pieces, split, short.Retries)
}

// TestResilientPiecesStopWithoutProgress pins the two ends of the piece
// loop under a server byte cap. A cap of a few records withholds most of
// each response, so one Frame repeats its request until nothing is
// withheld and ends with the uncapped oracle's meshes. A cap below one
// record delivers nothing, ever: Frame must return after that first
// empty response instead of spinning.
func TestResilientPiecesStopWithoutProgress(t *testing.T) {
	oracleAddr, d, _, _, oracleShutdown := startHardenedServer(t, nil)
	defer oracleShutdown()
	space := d.Store.Bounds().XY()
	oracle, err := Dial(oracleAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if _, err := oracle.Frame(space, 0); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		capBytes int64
	}{
		{"few-records", 40 * wavelet.WireBytes},
		{"below-one-record", wavelet.WireBytes - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, _, _, st, shutdown := startHardenedServer(t, func(s *Server) { s.SetBudgetCap(tc.capBytes) })
			defer shutdown()
			rc, err := DialResilient(ResilientConfig{
				Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			type result struct {
				n   int
				err error
			}
			done := make(chan result, 1)
			go func() {
				n, err := rc.Frame(space, 0)
				done <- result{n, err}
			}()
			var r result
			select {
			case r = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Frame spun on responses that deliver nothing")
			}
			if r.err != nil {
				t.Fatal(r.err)
			}
			requests := st.Load(stats.RetrievalRequests)
			if tc.capBytes < wavelet.WireBytes {
				if r.n != 0 || requests != 1 {
					t.Fatalf("%d coefficients over %d requests, want 0 over 1", r.n, requests)
				}
				return
			}
			if requests < 2 {
				t.Fatalf("a %d-byte cap answered the whole window in %d request", tc.capBytes, requests)
			}
			if int64(r.n) != oracle.Coefficients {
				t.Fatalf("capped frame applied %d coefficients, oracle %d", r.n, oracle.Coefficients)
			}
			assertSameMeshes(t, oracle, rc.Client())
		})
	}
}

// assertSameMeshes fails unless got holds every object want holds, with
// the same coefficient count and bit-identical vertices.
func assertSameMeshes(t *testing.T, want, got *Client) {
	t.Helper()
	if len(got.Objects()) != len(want.Objects()) {
		t.Fatalf("object sets diverged: %d != %d", len(got.Objects()), len(want.Objects()))
	}
	for _, id := range want.Objects() {
		wm, _ := want.Mesh(id)
		gm, ok := got.Mesh(id)
		if !ok {
			t.Fatalf("object %d missing", id)
		}
		if got.CoeffCount(id) != want.CoeffCount(id) {
			t.Fatalf("object %d: %d coefficients, want %d", id, got.CoeffCount(id), want.CoeffCount(id))
		}
		if wm.NumVerts() != gm.NumVerts() {
			t.Fatalf("object %d topology diverged", id)
		}
		for i := range wm.Verts {
			if wm.Verts[i] != gm.Verts[i] {
				t.Fatalf("object %d vertex %d diverged: %v != %v", id, i, gm.Verts[i], wm.Verts[i])
			}
		}
	}
}

// TestTokens pins the session-token generator: non-zero, no collisions.
// (The session table's own bounds are tested in the engine package,
// which owns it.)
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

// parked counts the lineages parked in every scene's session table.
func parked(srv *Server) int {
	n := 0
	for _, name := range srv.Registry().Names() {
		sc, _ := srv.Registry().Get(name)
		n += sc.Sessions.Parked()
	}
	return n
}

// waitParked waits until the server has parked one dropped session: a
// client that redials before that finds nothing to resume.
func waitParked(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for parked(srv) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions parked, want 1", parked(srv))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
