package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/abr"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// sceneSpec pairs a scene name with the workload seed it is generated
// from, so backends and oracles build byte-identical datasets
// independently.
type sceneSpec struct {
	name string
	seed int64
}

func sceneConfig(t *testing.T, sp sceneSpec, st *stats.Stats) engine.SceneConfig {
	t.Helper()
	d := workload.Generate(workload.Spec{NumObjects: 24, Levels: 3, Seed: sp.seed})
	return engine.SceneConfig{Name: sp.name, Source: d.Store, Levels: 3, Shards: 2, Stats: st}
}

// startGateway serves a gateway over the topology in a goroutine and
// returns its address and a shutdown func.
func startGateway(t *testing.T, top *Topology, st *stats.Stats, probeEvery time.Duration) (*Gateway, string) {
	t.Helper()
	gw, err := NewGateway(GatewayConfig{
		Topology:   top,
		Stats:      st,
		Logf:       t.Logf,
		ProbeEvery: probeEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := gw.Serve(lis); err != nil {
			t.Errorf("gateway serve: %v", err)
		}
	}()
	t.Cleanup(func() { gw.Close(); <-done })
	return gw, lis.Addr().String()
}

// tourFrames materializes a deterministic motion tour for a scene.
type frame struct {
	q     geom.Rect2
	speed float64
}

func tourFrames(d *workload.Dataset, seed int64, steps int) []frame {
	tour := motion.NewTour(motion.Tram, motion.TourSpec{
		Space: d.Store.Bounds().XY(), Steps: steps, Speed: 0.25,
	}, rand.New(rand.NewSource(seed)))
	side := d.QuerySide(0.10)
	out := make([]frame, steps)
	for i, pos := range tour.Pos {
		out[i] = frame{q: geom.RectAround(pos, side), speed: tour.SpeedAt(i)}
	}
	return out
}

// assertMeshesMatch compares a client's reconstructions against an
// oracle client byte for byte.
func assertMeshesMatch(t *testing.T, label string, oracle, got *proto.Client) {
	t.Helper()
	if len(oracle.Objects()) == 0 {
		t.Fatalf("%s: oracle retrieved no objects; comparison vacuous", label)
	}
	for _, id := range oracle.Objects() {
		om, _ := oracle.Mesh(id)
		gm, ok := got.Mesh(id)
		if !ok || got.CoeffCount(id) != oracle.CoeffCount(id) || om.NumVerts() != gm.NumVerts() {
			t.Fatalf("%s: object %d diverged (have %v, coeffs %d vs %d)",
				label, id, ok, got.CoeffCount(id), oracle.CoeffCount(id))
		}
		for i := range om.Verts {
			if om.Verts[i] != gm.Verts[i] {
				t.Fatalf("%s: object %d vertex %d differs", label, id, i)
			}
		}
	}
}

// TestGatewayUnknownScene pins the gateway's behavior for a client
// selecting a scene no backend serves: a sanitized wire error, not a
// hang and not a raw internal string.
func TestGatewayUnknownScene(t *testing.T) {
	st := stats.New()
	b, err := StartBackend(BackendConfig{
		Scenes: Scenes(sceneConfig(t, sceneSpec{"city", 7}, st)),
		Stats:  st,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	top := &Topology{Order: []string{"city"}, Replicas: map[string][]string{"city": {b.Addr()}}}
	_, gwAddr := startGateway(t, top, stats.New(), 0)

	done := make(chan error, 1)
	go func() {
		_, err := proto.DialScene(gwAddr, "atlantis", nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("unknown scene accepted")
		}
		if !strings.Contains(err.Error(), "unknown scene: atlantis") {
			t.Fatalf("error %q does not name the unknown scene", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("unknown-scene select hung instead of erroring")
	}

	// A valid select through the same gateway still works.
	c, err := proto.DialScene(gwAddr, "city", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Scene() != "city" {
		t.Fatalf("scene = %q", c.Scene())
	}
	c.Close()
}

// TestGatewayRefusesSelectOfDrainingScene pins the drain's admission
// gate for scene selects: a client lands on the default scene first, so
// a select of a draining scene that shares the default scene's backend
// must be refused with the retryable drain error, not forwarded to bind
// a session on the source the drain would never ship.
func TestGatewayRefusesSelectOfDrainingScene(t *testing.T) {
	st := stats.New()
	b, err := StartBackend(BackendConfig{
		Scenes: Scenes(
			sceneConfig(t, sceneSpec{"city", 7}, st),
			sceneConfig(t, sceneSpec{"park", 8}, st),
		),
		Stats: st,
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	top := &Topology{
		Order:    []string{"city", "park"},
		Replicas: map[string][]string{"city": {b.Addr()}, "park": {b.Addr()}},
	}
	gw, gwAddr := startGateway(t, top, stats.New(), 0)

	if err := gw.BeginDrain("park"); err != nil {
		t.Fatal(err)
	}
	if c, err := proto.DialScene(gwAddr, "park", nil); err == nil {
		c.Close()
		t.Fatal("select of a draining scene was forwarded")
	} else if !strings.Contains(err.Error(), errDraining.Error()) {
		t.Fatalf("error %q is not the retryable drain error", err)
	}
	// The default scene is not draining and still routes.
	c, err := proto.DialScene(gwAddr, "city", nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	gw.AbortDrain("park")
	c, err = proto.DialScene(gwAddr, "park", nil)
	if err != nil {
		t.Fatalf("select after the drain lifted: %v", err)
	}
	if c.Scene() != "park" {
		t.Fatalf("scene = %q", c.Scene())
	}
	c.Close()
}

// TestClusterRaceSoak is the concurrency gate for the cluster layer:
// 16 clients across two scenes on two backends, all proxied through
// one gateway, with one live drain relocating the busier scene
// mid-tour. Every client must finish byte-identical to its scene's
// oracle with zero re-plans (no session lost), the per-backend stats
// must reconcile exactly against the gateway's routing counters, and
// the drain must ship the segment the source wrote at boot without
// writing it again: the adopter's copy holds the same pages.
// Run under -race (make race / make cluster).
func TestClusterRaceSoak(t *testing.T) {
	const (
		clientsPerScene = 8
		steps           = 36
		drainAt         = steps / 2
	)
	dir := t.TempDir()
	east, west := sceneSpec{"east", 21}, sceneSpec{"west", 22}

	st1, st2 := stats.New(), stats.New()
	b1, err := StartBackend(BackendConfig{
		Scenes:  Scenes(sceneConfig(t, east, st1)),
		DataDir: filepath.Join(dir, "b1"),
		Stats:   st1,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := StartBackend(BackendConfig{
		Scenes:  Scenes(sceneConfig(t, west, st2)),
		DataDir: filepath.Join(dir, "b2"),
		Stats:   st2,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := b1.Addr(), b2.Addr()

	gwStats := stats.New()
	top := &Topology{
		Order:    []string{"east", "west"},
		Replicas: map[string][]string{"east": {a1}, "west": {a2}},
	}
	gw, gwAddr := startGateway(t, top, gwStats, 25*time.Millisecond)
	ctl := NewController(gw, []*Backend{b1, b2}, gwStats)

	// Oracle: an off-topology backend serving both scenes from
	// identically generated datasets; one fault-free client per scene.
	oracleB, err := StartBackend(BackendConfig{
		Scenes: Scenes(
			sceneConfig(t, east, stats.New()),
			sceneConfig(t, west, stats.New()),
		),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer oracleB.Stop()

	oracles := map[string]*proto.Client{}
	frames := map[string][]frame{}
	for _, sp := range []sceneSpec{east, west} {
		d := workload.Generate(workload.Spec{NumObjects: 24, Levels: 3, Seed: sp.seed})
		frames[sp.name] = tourFrames(d, 100+sp.seed, steps)
		oc, err := proto.DialScene(oracleB.Addr(), sp.name, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range frames[sp.name] {
			if _, err := oc.Frame(f.q, f.speed); err != nil {
				t.Fatalf("oracle %s frame %d: %v", sp.name, i, err)
			}
		}
		defer oc.Close()
		oracles[sp.name] = oc
	}

	// 16 clients march their tours; all pause at the halfway barrier
	// with live sessions, the controller drains east from b1 to b2, and
	// everyone finishes.
	type result struct {
		scene            string
		rc               *proto.ResilientClient
		resumes, replans int64
		err              error
	}
	results := make([]result, 2*clientsPerScene)
	var atBarrier sync.WaitGroup
	atBarrier.Add(len(results))
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for ci := range results {
		scene := "east"
		if ci >= clientsPerScene {
			scene = "west"
		}
		results[ci].scene = scene
		wg.Add(1)
		go func(ci int, scene string) {
			defer wg.Done()
			rc, err := proto.DialResilient(proto.ResilientConfig{
				Addrs:        []string{gwAddr},
				Scene:        scene,
				FrameTimeout: 10 * time.Second,
				MaxAttempts:  20,
				BackoffBase:  2 * time.Millisecond,
				BackoffMax:   50 * time.Millisecond,
				Seed:         int64(ci),
			})
			if err != nil {
				results[ci].err = fmt.Errorf("dial: %w", err)
				atBarrier.Done()
				return
			}
			for i, f := range frames[scene] {
				if i == drainAt {
					atBarrier.Done()
					<-gate
				}
				if _, err := rc.Frame(f.q, f.speed); err != nil {
					results[ci].err = fmt.Errorf("frame %d: %w", i, err)
					return
				}
			}
			results[ci].rc = rc
			results[ci].resumes = rc.Resumes
			results[ci].replans = rc.Replans
		}(ci, scene)
	}

	atBarrier.Wait()
	bootFile, err := os.ReadFile(SegmentPath(filepath.Join(dir, "b1"), "east"))
	if err != nil {
		t.Fatal(err)
	}
	saves := st1.Load(stats.EngineCheckpoints)
	rep, err := ctl.Drain("east", a2)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(gate)
	wg.Wait()

	if saves != 1 || st1.Load(stats.EngineCheckpoints) != saves {
		t.Errorf("source wrote its segment %d times at boot and %d during the drain, want 1 and 0",
			saves, st1.Load(stats.EngineCheckpoints)-saves)
	}
	adopted, err := os.ReadFile(SegmentPath(filepath.Join(dir, "b2"), "east"))
	if err != nil {
		t.Fatal(err)
	}
	if pages := samePages(t, adopted, bootFile); pages == 0 {
		t.Error("the shipped segment has no pages")
	}

	if rep.Severed != clientsPerScene || rep.Shipped != clientsPerScene || rep.Adopted != clientsPerScene {
		t.Fatalf("drain report %+v, want %d severed/shipped/adopted", rep, clientsPerScene)
	}
	if got := gw.Routes()["east"]; len(got) != 1 || got[0] != a2 {
		t.Fatalf("post-drain east route = %v, want [%s]", got, a2)
	}

	// Every session survived: byte-identical meshes, no lost sessions
	// (zero re-plans), and east clients resumed exactly once.
	for ci := range results {
		r := &results[ci]
		if r.err != nil {
			t.Fatalf("client %d (%s): %v", ci, r.scene, r.err)
		}
		assertMeshesMatch(t, fmt.Sprintf("client %d (%s)", ci, r.scene), oracles[r.scene], r.rc.Client())
		if r.replans != 0 {
			t.Errorf("client %d (%s): %d re-plans — a session was lost", ci, r.scene, r.replans)
		}
		wantResumes := int64(0)
		if r.scene == "east" {
			wantResumes = 1
		}
		if r.resumes != wantResumes {
			t.Errorf("client %d (%s): resumes = %d, want %d", ci, r.scene, r.resumes, wantResumes)
		}
		r.rc.Close()
	}

	// Exact per-backend reconciliation: stop the gateway (ends the
	// prober), then each backend's accepted sessions must equal the
	// routes plus probes the gateway recorded against it.
	gw.Close()
	b1.Stop()
	b2.Stop()
	gs := gwStats.Snapshot()
	s1, s2 := st1.Snapshot(), st2.Snapshot()
	for _, bk := range []struct {
		addr string
		s    stats.Snapshot
	}{{a1, s1}, {a2, s2}} {
		g := gs.Backends[bk.addr]
		if g[stats.BackendProbeFails] != 0 {
			t.Errorf("backend %s: %d failed probes during a clean soak", bk.addr, g[stats.BackendProbeFails])
		}
		if opened := bk.s.Get(stats.ProtoSessionsOpened); opened != g[stats.BackendRoutes]+g[stats.BackendProbes] {
			t.Errorf("backend %s: opened %d sessions, gateway accounts for %d routes + %d probes",
				bk.addr, opened, g[stats.BackendRoutes], g[stats.BackendProbes])
		}
	}
	if gs.Get(stats.ClusterDrains) != 1 {
		t.Errorf("drains = %d, want 1", gs.Get(stats.ClusterDrains))
	}
	// The drained scene's resumes were all served from shipped
	// (restored-flagged) sessions on the target backend.
	if s2.Get(stats.ProtoResumesRestored) != clientsPerScene {
		t.Errorf("restored resumes on target = %d, want %d", s2.Get(stats.ProtoResumesRestored), clientsPerScene)
	}
	if s1.Get(stats.ProtoResumesRestored) != 0 {
		t.Errorf("restored resumes on source = %d, want 0", s1.Get(stats.ProtoResumesRestored))
	}
}

// TestExportSceneNeedsSceneFile pins that a drain ships only a scene's
// segment: a memory-only backend has none, so ExportScene refuses,
// naming the backend, rather than ship nothing.
func TestExportSceneNeedsSceneFile(t *testing.T) {
	st := stats.New()
	b, err := StartBackend(BackendConfig{
		Scenes: Scenes(sceneConfig(t, sceneSpec{"bare", 3}, st)),
		Stats:  st,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	if _, _, err := b.ExportScene("bare"); err == nil || !strings.Contains(err.Error(), b.Addr()+" is memory-only") {
		t.Fatalf("ExportScene on a memory-only backend = %v, want an error naming it", err)
	}
}

// TestGatewayRoutesBudgetedFrames is the ABR-through-the-gateway
// regression: a resilient client streaming budgeted frames dialed at a
// gateway finishes a tram tour without a retry, every frame within the
// budget read before it, and ends with exactly the meshes of the same tour dialed
// at the backend directly. The budget is pinned (MinBudget = MaxBudget)
// so both tours ask for the same bytes every frame.
func TestGatewayRoutesBudgetedFrames(t *testing.T) {
	const steps = 24
	city := sceneSpec{"city", 7}
	st := stats.New()
	b, err := StartBackend(BackendConfig{
		Scenes: Scenes(sceneConfig(t, city, st)),
		Stats:  st,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	top := &Topology{Order: []string{"city"}, Replicas: map[string][]string{"city": {b.Addr()}}}
	_, gwAddr := startGateway(t, top, stats.New(), 0)
	d := workload.Generate(workload.Spec{NumObjects: 24, Levels: 3, Seed: city.seed})
	frames := tourFrames(d, 11, steps)

	tour := func(addr string) *proto.ResilientClient {
		t.Helper()
		rc, err := proto.DialResilient(proto.ResilientConfig{
			Addrs:       []string{addr},
			MaxAttempts: 2,
			BackoffBase: time.Millisecond,
			BackoffMax:  time.Millisecond,
			ABR:         &abr.Config{MinBudget: 1 << 10, MaxBudget: 1 << 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range frames {
			budget := rc.ABR().Budget()
			n, err := rc.Frame(f.q, f.speed)
			if err != nil {
				t.Fatalf("%s frame %d: %v", addr, i, err)
			}
			if got := int64(n) * wavelet.WireBytes; got > budget {
				t.Fatalf("%s frame %d: %d bytes over its %d budget", addr, i, got, budget)
			}
		}
		if rc.Retries != 0 {
			t.Fatalf("%s: tour needed %d retries", addr, rc.Retries)
		}
		return rc
	}
	direct := tour(b.Addr())
	defer direct.Close()
	routed := tour(gwAddr)
	defer routed.Close()
	if st.Load(stats.RetrievalTruncated) == 0 {
		t.Fatal("no frame was truncated; the budget exercised nothing")
	}
	assertMeshesMatch(t, "gateway-routed ABR tour", direct.Client(), routed.Client())
}
