package proto

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// lineage is the reference for one session lineage: the delivered set a
// fresh server would hold for it, the sequence number of its last
// applied response, and the client's Algorithm-1 planner.
type lineage struct {
	scene     string
	delivered retrieval.Delivered
	seq       int64
	planner   *retrieval.Client
}

// expect returns the response frame a fresh server sends the lineage
// for subs, and records its coefficients as delivered.
func (l *lineage) expect(ref *retrieval.Server, subs []retrieval.SubQuery) []byte {
	resp := ref.Execute(subs, &l.delivered, nil, 0)
	frame := beginResponseFrame(nil, len(resp.IDs))
	for _, id := range resp.IDs {
		w := index.MustCoeff(ref.Store(), id).Wire()
		frame = wavelet.AppendWire(frame, &w)
	}
	l.seq++
	frame, err := finishResponseFrame(frame, resp.IO, l.seq, resp.Dropped)
	if err != nil {
		panic(err)
	}
	return frame
}

// lifecycleConn is one raw client connection whose reads are recorded,
// so a response's frame bytes can be compared with the reference's.
type lifecycleConn struct {
	nc    net.Conn
	rc    *recordingConn
	r     *Reader
	w     *Writer
	hello Hello
}

func dialLifecycle(t *testing.T, addr string) *lifecycleConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &lifecycleConn{nc: nc, rc: &recordingConn{Conn: nc, rec: new(bytes.Buffer)}, w: NewWriter(nc)}
	c.r = NewReader(c.rc)
	c.readHello(t)
	return c
}

func (c *lifecycleConn) readHello(t *testing.T) {
	t.Helper()
	if tag, err := c.r.ReadTag(); err != nil || tag != TagHello {
		t.Fatalf("greeting tag %d, err %v", tag, err)
	}
	h, err := c.r.ReadHello()
	if err != nil {
		t.Fatal(err)
	}
	c.hello = h
}

func (c *lifecycleConn) selectScene(t *testing.T, name string) {
	t.Helper()
	if err := c.w.WriteSceneSelect(name); err != nil {
		t.Fatal(err)
	}
	c.readHello(t)
}

// frame sends subs and returns the response frame's bytes as they came
// off the wire.
func (c *lifecycleConn) frame(t *testing.T, subs []retrieval.SubQuery) []byte {
	t.Helper()
	c.rc.rec.Reset()
	if err := c.w.WriteRequest(Request{Subs: subs}); err != nil {
		t.Fatal(err)
	}
	if tag, err := c.r.ReadTag(); err != nil || tag != TagResponse {
		t.Fatalf("reply tag %d, err %v", tag, err)
	}
	var resp Response
	if err := c.r.ReadResponseInto(&resp); err != nil {
		t.Fatal(err)
	}
	// The server sends nothing between a response and the next request,
	// so the recorder holds exactly this frame.
	if c.r.Buffered() != 0 {
		t.Fatalf("%d bytes read past the response frame", c.r.Buffered())
	}
	return c.rc.rec.Bytes()
}

// waitNoConns waits until the server has finished every handler: the
// ended connections have parked or recycled what they held.
func waitNoConns(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connections still open 5 s after their clients left")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// FuzzConnectionLifecycle runs a drawn sequence of connections through
// one two-scene server, each: the greeting, an optional scene select,
// then steps — tour frames, a resume of a parked token (or of a token
// that ended with a goodbye, which must miss) — and an end: a goodbye
// (the server recycles the session and buffers), a drop between frames
// or a drop after a request whose response is never read (the session
// parks, to be resumed and rolled back). Every response frame must be
// byte-identical to the one a fresh server sends that lineage, and
// every resume must restore the parked lineage's sequence number and
// delivered count: a delivered bit left in a recycled session, a stale
// LastIDs or a parked session that was recycled all break one of these.
func FuzzConnectionLifecycle(f *testing.F) {
	// A program is one line per connection: the scene byte (0 keep the
	// greeting's, 1 select beta, 2 select alpha), then steps — 0–4 a
	// frame at that speed step and the window centre's two bytes, 5 a
	// resume (plus a byte picking a goodbye token when nothing is
	// parked), 6 a goodbye, 7 a drop and a byte: 0 between frames, 1
	// after an unread request.
	f.Add(slices.Concat(
		[]byte{0, 0, 10, 20, 1, 30, 40, 7, 0}, // alpha: two frames, drop: parks
		[]byte{1, 2, 50, 60, 7, 1},            // beta: a frame, a request left unread: parks a frame ahead
		[]byte{0, 0, 70, 80, 0, 90, 100, 6},   // alpha: two frames, goodbye: recycled
		[]byte{1, 3, 20, 20, 6},               // beta: a frame, goodbye
		[]byte{0, 5, 1, 10, 10, 6},            // alpha: resume, a frame, goodbye
		[]byte{1, 5, 0, 40, 40, 6},            // beta: resume (rolled back), a frame, goodbye
	))
	f.Add(slices.Concat(
		[]byte{2, 0, 100, 100, 7, 0},          // select alpha, a frame, drop: parks
		[]byte{0, 4, 30, 30, 5, 0, 60, 60, 6}, // a frame, resume replacing this session, a frame, goodbye
		[]byte{2, 0, 100, 100, 6},             // select alpha again: the greeting's session goes back
		[]byte{0, 0, 100, 100, 6},
	))
	f.Add(slices.Concat(
		[]byte{0, 0, 1, 2, 6},       // alpha: a frame, goodbye
		[]byte{1, 0, 128, 128, 6},   // beta: a frame, goodbye
		[]byte{0, 5, 0, 0, 9, 9, 6}, // alpha: resuming a goodbye token misses; a frame
	))
	f.Add(slices.Concat(
		[]byte{0, 7, 1},       // a request left unread on a fresh lineage: parks at seq 1
		[]byte{0, 0, 5, 5, 6}, // orderly connections in between
		[]byte{0, 1, 6, 6, 6},
		[]byte{0, 5, 2, 7, 7, 6}, // resume: rolled back to seq 0, then a frame
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 6 // out of steps: say goodbye
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// sync.Pool keeps a Put on the putting P, where a handler on
		// another P cannot take it: on one P every connection after a
		// goodbye starts on what it left.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		srv, addr, _, _, shutdown := startMultiSceneServer(t, stats.New())
		defer shutdown()
		refs := map[string]*retrieval.Server{}
		for _, name := range []string{"alpha", "beta"} {
			sc, _ := srv.Registry().Get(name)
			refs[name] = retrieval.NewServer(sc.Server.Store(), sc.Server.Index())
			refs[name].SetStats(nil)
		}
		parked := map[uint64]*lineage{}
		var byes []uint64
		for conns := 0; len(data) > 0 && conns < 8; conns++ {
			c := dialLifecycle(t, addr)
			switch next() % 3 {
			case 1:
				c.selectScene(t, "beta")
			case 2:
				c.selectScene(t, "alpha")
			}
			scene, space := c.hello.Scene, c.hello.Space
			lin := &lineage{scene: scene, planner: retrieval.NewClient(nil, nil)}
			started, orderly := false, true
		steps:
			for step := 0; step < 6; step++ {
				op := next() % 8
				switch {
				case op <= 4:
					x, y := float64(next())/255, float64(next())/255
					q := geom.RectAround(geom.V2(space.Min.X+x*space.Width(), space.Min.Y+y*space.Height()), space.Width())
					speed := float64(op) / 8
					subs := lin.planner.PlanFrame(q, speed)
					got := c.frame(t, subs)
					if want := lin.expect(refs[scene], subs); !bytes.Equal(got, want) {
						t.Fatalf("connection %d step %d: response frame of %d bytes differs from a fresh server's %d bytes", conns, step, len(got), len(want))
					}
					lin.planner.Advance(q, speed)
					started = true
				case op == 5:
					var token uint64
					var prev *lineage
					for tok, l := range parked {
						if l.scene == scene && (prev == nil || tok < token) {
							token, prev = tok, l
						}
					}
					if prev == nil && len(byes) > 0 {
						token = byes[int(next())%len(byes)]
					}
					if token == 0 {
						continue
					}
					applied := int64(0)
					if prev != nil {
						applied = prev.seq
					}
					if err := c.w.WriteResume(Resume{Token: token, AppliedSeq: applied}); err != nil {
						t.Fatal(err)
					}
					tag, err := c.r.ReadTag()
					if err != nil {
						t.Fatal(err)
					}
					if prev == nil {
						if tag != TagResumeFail {
							t.Fatalf("connection %d: resuming a token that ended with a goodbye answered tag %d, want a miss", conns, tag)
						}
						if _, err := c.r.ReadResumeFail(); err != nil {
							t.Fatal(err)
						}
						continue
					}
					if tag != TagResumeOK {
						t.Fatalf("connection %d: resume of a parked lineage answered tag %d", conns, tag)
					}
					ok, err := c.r.ReadResumeOK()
					if err != nil {
						t.Fatal(err)
					}
					if ok.Seq != prev.seq || ok.Delivered != int64(prev.delivered.Len()) {
						t.Fatalf("connection %d: resumed at seq %d with %d delivered, the lineage parked at seq %d with %d",
							conns, ok.Seq, ok.Delivered, prev.seq, prev.delivered.Len())
					}
					delete(parked, token)
					lin, started = prev, true
				case op == 6:
					break steps
				default:
					orderly = false
					if next()%2 == 1 {
						// The response goes unread, but the server has
						// counted it: the lineage parks a frame ahead.
						q := geom.RectAround(space.Center(), space.Width()/4)
						if err := c.w.WriteRequest(Request{Subs: lin.planner.PlanFrame(q, 0)}); err != nil {
							t.Fatal(err)
						}
						started = true
					}
					break steps
				}
			}
			if orderly {
				if err := c.w.WriteBye(); err != nil {
					t.Fatal(err)
				}
				byes = append(byes, c.hello.Token)
			} else if started {
				parked[c.hello.Token] = lin
			}
			c.nc.Close()
			waitNoConns(t, srv)
		}
	})
}

// TestOrderlyEndRecyclesConnection: a connection that ends with a
// goodbye releases its session to its scene, a later connection's
// greeting takes it (proto.sessions_reused counts that), and the later
// connection's frames are those of a fresh server. sync.Pool keeps a
// Put on the putting P and drops some Puts under the race detector, so
// the test runs connections until one reuses.
func TestOrderlyEndRecyclesConnection(t *testing.T) {
	st := stats.New()
	srv, addr, alpha, _, shutdown := startMultiSceneServer(t, st)
	defer shutdown()
	whole := alpha.Store.Bounds().XY()
	var want int
	for i := 0; st.Snapshot().Get(stats.ProtoSessionsReused) == 0; i++ {
		if i == 200 {
			t.Fatal("200 orderly connections, none started on a released session")
		}
		c, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		n, err := c.Frame(whole, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = n
		} else if n != want {
			t.Fatalf("connection %d received %d coefficients for the whole scene, the first %d", i, n, want)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		waitNoConns(t, srv)
	}
	if got := st.Snapshot().Get(stats.ProtoSessionsOpened); got < 2 {
		t.Fatalf("proto.sessions_opened %d after a reuse", got)
	}
}

// TestClientUsableAfterClose: Close hands the record buffer on but
// keeps the reconstructors, so Objects, Mesh and CoeffCount answer as
// before; a frame on the closed client fails with net.ErrClosed, and a
// resilient client reconnects after Close and reads correct frames into
// a buffer of its own — greeting fresh, without presenting the token
// of the session it said goodbye to.
func TestClientUsableAfterClose(t *testing.T) {
	st := stats.New()
	_, addr, d, _, shutdown := startMultiSceneServer(t, st)
	defer shutdown()
	whole := d.Store.Bounds().XY()

	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Frame(whole, 0.5); err != nil {
		t.Fatal(err)
	}
	objects := c.Objects()
	counts := map[int32]int{}
	meshes := map[int32][]geom.Vec3{}
	for _, obj := range objects {
		counts[obj] = c.CoeffCount(obj)
		m, _ := c.Mesh(obj)
		meshes[obj] = m.Verts
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Another client may now hold the closed one's record buffer.
	other, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Frame(whole, 0); err != nil {
		t.Fatal(err)
	}
	if len(c.Objects()) != len(objects) {
		t.Fatalf("%d objects after Close, %d before", len(c.Objects()), len(objects))
	}
	for _, obj := range objects {
		m, ok := c.Mesh(obj)
		if !ok || c.CoeffCount(obj) != counts[obj] {
			t.Fatalf("object %d after Close: mesh %v, %d coefficients, want %d", obj, ok, c.CoeffCount(obj), counts[obj])
		}
		for i, v := range m.Verts {
			if v != meshes[obj][i] {
				t.Fatalf("object %d vertex %d moved after Close", obj, i)
			}
		}
	}
	if _, err := c.Frame(whole, 0); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("frame after Close: %v, want net.ErrClosed", err)
	}
	if err := c.Close(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("second Close: %v, want net.ErrClosed", err)
	}
	other.Close()

	// A resilient client closed with a goodbye re-plans on its next
	// frame: the server discarded the session, so the frame re-covers
	// the window, and the meshes end where a fresh client's do.
	rc, err := DialResilient(ResilientConfig{Addrs: []string{addr}, sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Frame(whole, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Frame(whole, 0); err != nil {
		t.Fatal(err)
	}
	if rc.Replans != 1 || rc.Resumes != 0 {
		t.Fatalf("reconnect after Close: %d re-plans, %d resumes, want 1 and 0", rc.Replans, rc.Resumes)
	}
	if n := st.Load(stats.ProtoResumeHits) + st.Load(stats.ProtoResumeMisses); n != 0 {
		t.Fatalf("the server answered %d resumes: a closed client presented its token", n)
	}
	fresh, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Frame(whole, 0); err != nil {
		t.Fatal(err)
	}
	assertSameMeshes(t, fresh, rc.Client())
	rc.Close()
}

// startTripServer serves one scene over store and idx with the sharing
// table wired, as the end-to-end benchmark's stack does, on loopback.
func startTripServer(tb testing.TB, store index.CoefficientSource, idx index.IntoSearcher) (addr string, st *stats.Stats, stop func()) {
	tb.Helper()
	st = stats.New()
	reg := engine.NewRegistry()
	if _, err := reg.AddScene(DefaultSceneName, retrieval.NewServer(store, idx), 3); err != nil {
		tb.Fatal(err)
	}
	reg.EnableHotCache(hotcache.Config{}, st)
	srv := NewMultiServer(reg, nil)
	srv.SetStats(st)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(lis)
	}()
	return lis.Addr().String(), st, func() {
		srv.Close()
		<-done
	}
}

// joinTrip is one arrival of the end-to-end benchmark's join.hot
// workload: dial and hello, a wholesale window a tenth of space wide at
// its centre, seven sliver frames walking away from it, and a goodbye.
func joinTrip(tb testing.TB, addr string, space geom.Rect2) {
	const speed = 0.35
	landmark, side := space.Center(), 0.10*space.Width()
	step := geom.V2(speed*0.02*space.Width(), 0)
	c, err := Dial(addr, nil)
	if err != nil {
		tb.Fatal(err)
	}
	pos := landmark
	for i := 0; i < 8; i++ {
		if _, err := c.Frame(geom.RectAround(pos, side), speed); err != nil {
			tb.Fatal(err)
		}
		pos = pos.Add(step)
	}
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestRepeatedTripHitsEveryFrame: the sliver frames of one trip lie a few
// world units apart, and each is a hot entry of its own. The first trip's
// asks are first touches, the second stores all eight, and every frame of
// the third is answered from the cache; nothing is evicted.
func TestRepeatedTripHitsEveryFrame(t *testing.T) {
	d := workload.Generate(workload.Spec{NumObjects: 12, Levels: 3, Seed: 5})
	addr, st, stop := startTripServer(t, d.Store, index.NewSharded(d.Store, index.XYW, index.ShardedConfig{}))
	defer stop()
	space := d.Store.Bounds().XY()
	joinTrip(t, addr, space)
	joinTrip(t, addr, space)
	before := st.Snapshot()
	joinTrip(t, addr, space)
	after := st.Snapshot()
	hits, misses := after.Get(stats.HotHits)-before.Get(stats.HotHits), after.Get(stats.HotMisses)-before.Get(stats.HotMisses)
	if hits != 8 || misses != 0 || after.Get(stats.HotEvictions) != 0 || after.Get(stats.HotEntries) != 8 {
		t.Fatalf("third trip: %d hot hits, %d misses; %d evictions, %d entries in all; want 8, 0, 0, 8",
			hits, misses, after.Get(stats.HotEvictions), after.Get(stats.HotEntries))
	}
}

// BenchmarkConnectionTrip is joinTrip over the benchmark city (the hot
// cache answers every frame after the second trip, and replays the
// wholesale window's payload). Allocations count both ends, server and
// client; the hot-cache rows are per trip.
func BenchmarkConnectionTrip(b *testing.B) {
	benchCity.once.Do(loadBenchCity)
	addr, st, stop := startTripServer(b, benchCity.store, benchCity.idx)
	defer stop()
	space := benchCity.store.Bounds().XY()
	joinTrip(b, addr, space)
	before := st.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		joinTrip(b, addr, space)
	}
	b.StopTimer()
	after := st.Snapshot()
	per := func(row stats.Counter) float64 { return float64(after.Get(row)-before.Get(row)) / float64(b.N) }
	b.ReportMetric(float64(after.Get(stats.ProtoSessionsReused))/float64(b.N+1), "reused/op")
	b.ReportMetric(per(stats.HotHits), "hothits/op")
	b.ReportMetric(per(stats.HotMisses), "hotmisses/op")
	b.ReportMetric(per(stats.HotEvictions), "evictions/op")
}
