package proto

import (
	"net"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/workload"
)

// startMultiSceneServer serves two scenes ("alpha": 6 objects, "beta":
// 3 objects) from one listener.
func startMultiSceneServer(t *testing.T, st *stats.Stats) (srv *Server, addr string, alpha, beta *workload.Dataset, shutdown func()) {
	t.Helper()
	alpha = workload.Generate(workload.Spec{NumObjects: 6, Levels: 3, Seed: 21})
	beta = workload.Generate(workload.Spec{NumObjects: 3, Levels: 3, Seed: 22})
	reg := engine.NewRegistry()
	if _, err := reg.Build(engine.SceneConfig{
		Name: "alpha", Source: alpha.Store, Levels: alpha.Spec.Levels, Shards: 4, Stats: st}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Build(engine.SceneConfig{
		Name: "beta", Source: beta.Store, Levels: beta.Spec.Levels, Shards: 2, Stats: st}); err != nil {
		t.Fatal(err)
	}
	srv = NewMultiServer(reg, t.Logf)
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
	return srv, lis.Addr().String(), alpha, beta, func() {
		srv.Close()
		<-done
	}
}

func TestSceneRouting(t *testing.T) {
	st := stats.New()
	_, addr, alpha, beta, shutdown := startMultiSceneServer(t, st)
	defer shutdown()

	// No selection: the default (first-registered) scene answers.
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Scene() != "alpha" || c.Hello().Objects != 6 {
		t.Fatalf("default hello = %+v", c.Hello())
	}
	c.Close()

	// Selecting beta re-binds the connection: its schema, its data.
	c, err = DialScene(addr, "beta", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Scene() != "beta" || c.Hello().Objects != 3 {
		t.Fatalf("beta hello = %+v", c.Hello())
	}
	n, err := c.Frame(geom.R2(-100, -100, 1100, 1100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != beta.Store.NumCoeffs() {
		t.Fatalf("received %d of beta's %d coefficients", n, beta.Store.NumCoeffs())
	}
	if int64(n) == alpha.Store.NumCoeffs() {
		t.Fatal("test datasets indistinguishable")
	}

	// The request landed in beta's breakdown, not alpha's.
	snap := st.Snapshot()
	if snap.Scenes["beta"][stats.SceneRequests] != 1 {
		t.Fatalf("beta breakdown = %+v", snap.Scenes["beta"])
	}
	if snap.Scenes["alpha"][stats.SceneRequests] != 0 {
		t.Fatalf("alpha breakdown = %+v", snap.Scenes["alpha"])
	}

	// Unknown scene: refused with a sanitized error.
	if _, err := DialScene(addr, "gamma", nil); err == nil || !strings.Contains(err.Error(), "unknown scene") {
		t.Fatalf("unknown scene err = %v", err)
	}
}

func TestSceneResumeAfterReconnect(t *testing.T) {
	st := stats.New()
	srv, addr, _, beta, shutdown := startMultiSceneServer(t, st)
	defer shutdown()

	c, err := DialScene(addr, "beta", nil)
	if err != nil {
		t.Fatal(err)
	}
	window := geom.R2(-100, -100, 1100, 1100)
	n, err := c.Frame(window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != beta.Store.NumCoeffs() {
		t.Fatalf("first frame delivered %d", n)
	}

	// Abrupt drop (no Bye): the server parks the session in beta's cache
	// once it notices the dead peer.
	c.conn.Close()
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
		t.Fatal("session not resumed")
	}
	if c.Scene() != "beta" {
		t.Fatalf("resumed onto scene %q", c.Scene())
	}
	// The adopted delivered-set still filters: a repeat frame is empty.
	n, err = c.Frame(window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("resumed session re-delivered %d coefficients", n)
	}
	c.Close()
	if hits := st.Load(stats.ProtoResumeHits); hits != 1 {
		t.Fatalf("resume hits = %d", hits)
	}
}

// TestSceneResumeIsolation pins that a token minted on one scene cannot
// resume on another: the caches are per-scene.
func TestSceneResumeIsolation(t *testing.T) {
	st := stats.New()
	_, addr, _, _, shutdown := startMultiSceneServer(t, st)
	defer shutdown()

	c, err := DialScene(addr, "alpha", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Frame(geom.R2(0, 0, 500, 500), 0.5); err != nil {
		t.Fatal(err)
	}
	token := c.token
	c.conn.Close() // park in alpha's cache

	// Hand-roll a connection that selects beta, then presents alpha's
	// token: the resume must miss.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r, w := NewReader(conn), NewWriter(conn)
	if tag, _ := r.ReadTag(); tag != TagHello {
		t.Fatalf("expected hello, got %d", tag)
	}
	if _, err := r.ReadHello(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSceneSelect("beta"); err != nil {
		t.Fatal(err)
	}
	if tag, _ := r.ReadTag(); tag != TagHello {
		t.Fatalf("expected re-hello, got %d", tag)
	}
	if h, err := r.ReadHello(); err != nil || h.Scene != "beta" {
		t.Fatalf("re-hello = %+v err = %v", h, err)
	}
	if err := w.WriteResume(Resume{Token: token, AppliedSeq: 1}); err != nil {
		t.Fatal(err)
	}
	tag, err := r.ReadTag()
	if err != nil {
		t.Fatal(err)
	}
	if tag != TagResumeFail {
		t.Fatalf("cross-scene resume answered tag %d, want ResumeFail", tag)
	}
}

// TestSceneSelectAfterStartRejected pins the one-switch-before-traffic
// rule: a scene select after the first request drops the connection.
func TestSceneSelectAfterStartRejected(t *testing.T) {
	st := stats.New()
	_, addr, _, _, shutdown := startMultiSceneServer(t, st)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r, w := NewReader(conn), NewWriter(conn)
	if tag, _ := r.ReadTag(); tag != TagHello {
		t.Fatal("no hello")
	}
	if _, err := r.ReadHello(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRequest(Request{}); err != nil {
		t.Fatal(err)
	}
	if tag, _ := r.ReadTag(); tag != TagResponse {
		t.Fatal("no response")
	}
	if _, err := r.ReadResponse(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSceneSelect("beta"); err != nil {
		t.Fatal(err)
	}
	tag, err := r.ReadTag()
	if err != nil {
		t.Fatal(err)
	}
	if tag != TagError {
		t.Fatalf("late scene select answered tag %d, want error", tag)
	}
	if msg, err := r.ReadError(); err != nil || !strings.Contains(msg, "session start") {
		t.Fatalf("error = %q, %v", msg, err)
	}
}

func TestSceneSelectRoundtrip(t *testing.T) {
	conn := &pipeBuffer{}
	w, r := NewWriter(conn), NewReader(conn)
	if err := w.WriteSceneSelect("city-01"); err != nil {
		t.Fatal(err)
	}
	tag, err := r.ReadTag()
	if err != nil || tag != TagScene {
		t.Fatalf("tag = %d err = %v", tag, err)
	}
	got, err := r.ReadSceneSelect()
	if err != nil || got != "city-01" {
		t.Fatalf("scene = %q err = %v", got, err)
	}
	// Invalid names never reach the wire.
	if err := w.WriteSceneSelect("bad scene"); err == nil {
		t.Fatal("invalid scene name written")
	}
	if err := w.WriteSceneSelect(""); err == nil {
		t.Fatal("empty scene name written")
	}
}

// pipeBuffer is an in-memory io.ReadWriter for frame roundtrips.
type pipeBuffer struct {
	buf []byte
}

func (p *pipeBuffer) Write(b []byte) (int, error) {
	p.buf = append(p.buf, b...)
	return len(b), nil
}

func (p *pipeBuffer) Read(b []byte) (int, error) {
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}
