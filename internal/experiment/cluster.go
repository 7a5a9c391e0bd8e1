package experiment

import (
	"fmt"
	"io"
	"net"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/workload"
)

// clusterScene is the scene the cluster harness serves; its scene file
// and journaled sessions cross two backend handoffs under this name.
const clusterScene = "city"

// ClusterSpec configures the cluster acceptance experiment: resilient
// clients tour a scene through the gateway while the harness first kills
// the owning backend (failover to a cold replica booted from the dead
// backend's durable state) and then live-drains the scene onto a third,
// initially empty backend. The zero value gets TramSoakSpec's defaults.
type ClusterSpec struct {
	Seed    int64
	Objects int // dataset size (default 300)
	Steps   int // tour length per client (default 300)
	Shards  int // index shard count per scene

	// DataDir is the durable state root ("" = fresh temp dir, removed
	// afterwards). The scene's file and session journal live in
	// DataDir/owner; the drain target keeps its own DataDir/adopter.
	DataDir string
}

// reserveAddr grabs a concrete listen address for a backend that will be
// started later, keeping the listener open (never accepting) so nothing
// else can claim the port. Until released, the gateway's probes against
// it time out — which is exactly how the harness exercises ejection.
func reserveAddr() (net.Listener, string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return lis, lis.Addr().String(), nil
}

// RunCluster runs the cluster acceptance experiment and prints a
// summary. Two resilient clients ride the same seeded tour through a
// scene-routing gateway:
//
//   - phase 1 (failover): mid-tour, the scene's live session is severed
//     and the owning backend killed; a replica — listed second in the
//     topology, ejected by probes while its address was a dead reservation
//     — boots from the dead backend's scene file and journal, is
//     re-admitted, and the client resumes there with its token;
//   - phase 2 (drain): mid-tour of a second client, the controller
//     live-drains the scene onto an initially empty backend; the client
//     reconnects to the flipped route and resumes from the shipped
//     session.
//
// The experiment fails (as an error) unless both clients finish
// byte-identical to a single-process oracle with zero re-plans, each
// resumed exactly once, both resumes were served from restored-flagged
// sessions (journal replay and drain ship respectively), the gateway
// recorded the failover and the drain, and the replica's ejection and
// re-admission were both observed.
func RunCluster(spec ClusterSpec, w io.Writer) error {
	tram := TramSoakSpec{Seed: spec.Seed, Objects: spec.Objects, Steps: spec.Steps}.fill()
	spec.Objects, spec.Steps = tram.Objects, tram.Steps
	k1, k2 := spec.Steps/3, 2*spec.Steps/3
	if k1 < 2 || k2 <= k1 || k2 >= spec.Steps-1 {
		return fmt.Errorf("experiment: tour of %d steps too short for a kill and a drain", spec.Steps)
	}

	root, cleanup, err := dataDir(spec.DataDir, "cluster-experiment-")
	if err != nil {
		return err
	}
	defer cleanup()
	ownerDir := filepath.Join(root, "owner")
	adoptDir := filepath.Join(root, "adopter")

	soak := newTramSoak(tram)
	sceneFor := func(st *stats.Stats) engine.SceneConfig {
		sd := workload.Generate(workload.Spec{NumObjects: spec.Objects, Levels: soakLevels, Seed: spec.Seed + 5})
		return engine.SceneConfig{Name: clusterScene, Dataset: sd, Levels: soakLevels, Shards: spec.Shards, Stats: st}
	}

	// The owning backend, and a reserved address for the replica that
	// will take over after the kill.
	st1, st2, st3 := stats.New(), stats.New(), stats.New()
	b1, err := cluster.StartBackend(cluster.BackendConfig{
		Scenes:  cluster.Scenes(sceneFor(st1)),
		DataDir: ownerDir,
		Stats:   st1,
	})
	if err != nil {
		return err
	}
	reserved, a2, err := reserveAddr()
	if err != nil {
		return err
	}
	a1 := b1.Addr()

	gwStats := stats.New()
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Topology: &cluster.Topology{
			Order:    []string{clusterScene},
			Replicas: map[string][]string{clusterScene: {a1, a2}},
		},
		Stats:        gwStats,
		ProbeEvery:   20 * time.Millisecond,
		ProbeTimeout: 150 * time.Millisecond,
		FailAfter:    2,
		DialTimeout:  time.Second,
	})
	if err != nil {
		return err
	}
	gwLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	gwDone := make(chan struct{})
	go func() {
		defer close(gwDone)
		gw.Serve(gwLis)
	}()
	defer func() { gw.Close(); <-gwDone }()
	gwAddr := gwLis.Addr().String()

	// Single-process oracle: an off-topology backend with an identically
	// generated dataset, toured fault-free.
	oracleB, err := startScene(sceneFor(stats.New()))
	if err != nil {
		return err
	}
	defer oracleB.Stop()

	oracle, err := rideOracle(oracleB.Addr(), clusterScene, soak)
	if err != nil {
		return err
	}

	dialClient := func(seed int64) (*proto.ResilientClient, error) {
		cfg := resilientConfig(seed, nil)
		cfg.Addrs, cfg.Scene = []string{gwAddr}, clusterScene
		// A failover re-dials through the gateway until the prober has
		// ejected the dead backend: more, slower retries.
		cfg.MaxAttempts, cfg.BackoffBase, cfg.BackoffMax = 20, 2*time.Millisecond, 100*time.Millisecond
		return proto.DialResilient(cfg)
	}

	start := time.Now()

	// Phase 1: kill-one-backend failover. The replica address is a dead
	// reservation, so the prober must eject it before the kill; after the
	// replacement boots from the dead backend's DataDir it must be
	// re-admitted.
	rc1, err := dialClient(spec.Seed + 2)
	if err != nil {
		return err
	}
	defer rc1.Close()
	var b2 *cluster.Backend
	for i := range soak.tour.Pos {
		if i == k1 {
			if !waitUntil(5*time.Second, func() bool { return !gw.BackendUp(a2) }) {
				return fmt.Errorf("experiment: probes never ejected the dead replica %s", a2)
			}
			if err := killParked(b1, clusterScene); err != nil {
				return err
			}
			reserved.Close()
			b2, err = cluster.StartBackend(cluster.BackendConfig{
				Addr:    a2,
				DataDir: ownerDir,
				Stats:   st2,
			})
			if err != nil {
				return fmt.Errorf("experiment: replica failed to boot from %s: %w", ownerDir, err)
			}
			if !waitUntil(5*time.Second, func() bool { return gw.BackendUp(a2) }) {
				return fmt.Errorf("experiment: probes never re-admitted the recovered replica %s", a2)
			}
		}
		if err := soak.frame(rc1, i); err != nil {
			return fmt.Errorf("frame %d did not survive the backend kill: %w", i, err)
		}
	}
	rc1.Close()
	defer b2.Stop()
	// The Bye reaches b2 through the gateway asynchronously; until b2
	// drops the connection, the drain below would sever and ship it too.
	if !waitUntil(2*time.Second, func() bool { return b2.Server().SceneConns(clusterScene) == 0 }) {
		return fmt.Errorf("experiment: first client's session never closed on %s", a2)
	}

	// Phase 2: live drain onto an initially empty backend.
	b3, err := cluster.StartBackend(cluster.BackendConfig{
		DataDir: adoptDir,
		Stats:   st3,
	})
	if err != nil {
		return err
	}
	defer b3.Stop()
	a3 := b3.Addr()
	ctl := cluster.NewController(gw, []*cluster.Backend{b2, b3}, gwStats)

	rc2, err := dialClient(spec.Seed + 3)
	if err != nil {
		return err
	}
	defer rc2.Close()
	var rep cluster.DrainReport
	for i := range soak.tour.Pos {
		if i == k2 {
			rep, err = ctl.Drain(clusterScene, a3)
			if err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			if rep.Severed != 1 || rep.Shipped != 1 || rep.Adopted != 1 {
				return fmt.Errorf("experiment: drain report %+v, want 1 severed/shipped/adopted", rep)
			}
		}
		if err := soak.frame(rc2, i); err != nil {
			return fmt.Errorf("frame %d did not survive the drain: %w", i, err)
		}
	}
	rc2.Close()
	elapsed := time.Since(start)

	if got := gw.Routes()[clusterScene]; len(got) != 1 || got[0] != a3 {
		return fmt.Errorf("experiment: post-drain route = %v, want [%s]", got, a3)
	}

	div1, div2 := diverged(oracle, rc1.Client()), diverged(oracle, rc2.Client())
	gs := gwStats.Snapshot()
	// Resumes served from restored state, per backend: killed, replica,
	// drain adopter.
	r1, r2, r3 := st1.Load(stats.ProtoResumesRestored), st2.Load(stats.ProtoResumesRestored), st3.Load(stats.ProtoResumesRestored)
	var routes, probes, probeFails, failovers int64
	for _, b := range gs.Backends {
		routes += b[stats.BackendRoutes]
		probes += b[stats.BackendProbes]
		probeFails += b[stats.BackendProbeFails]
		failovers += b[stats.BackendFailovers]
	}

	fmt.Fprintf(w, "cluster: %d objects, two %d-step tram tours through the gateway, scene %q\n",
		spec.Objects, spec.Steps, clusterScene)
	fmt.Fprintf(w, "  phase 1 failover: killed %s at frame %d -> replica %s booted from its durable state\n",
		a1, k1, a2)
	fmt.Fprintf(w, "  phase 2 drain: %s -> %s at frame %d (severed %d, shipped %d, adopted %d, purged %d)\n",
		rep.From, rep.To, k2, rep.Severed, rep.Shipped, rep.Adopted, rep.Purged)
	fmt.Fprintf(w, "  gateway: routes %d · failovers %d · probes %d (failed %d) · drains %d · %v elapsed\n",
		routes, failovers, probes, probeFails, gs.Get(stats.ClusterDrains), elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  recovery: resumes %d+%d · re-plans %d+%d · journal-restored resumes %d · drain-shipped resumes %d\n",
		rc1.Resumes, rc2.Resumes, rc1.Replans, rc2.Replans, r2, r3)

	if div1 > 0 || div2 > 0 {
		fmt.Fprintf(w, "  convergence FAILED: %d+%d of %d objects diverged from the single-process oracle\n",
			div1, div2, len(oracle.Objects()))
		return fmt.Errorf("experiment: %d objects diverged across failover and drain", div1+div2)
	}
	fmt.Fprintf(w, "  convergence OK: all %d objects byte-identical to the single-process oracle, twice\n",
		len(oracle.Objects()))

	if rc1.Replans != 0 || rc2.Replans != 0 {
		return fmt.Errorf("experiment: %d+%d re-plans — a session was lost", rc1.Replans, rc2.Replans)
	}
	if rc1.Resumes != 1 || rc2.Resumes != 1 {
		return fmt.Errorf("experiment: resumes %d+%d, want exactly 1 per client", rc1.Resumes, rc2.Resumes)
	}
	if r2 != 1 {
		return fmt.Errorf("experiment: %d journal-restored resumes on the replica, want 1", r2)
	}
	if r3 != 1 {
		return fmt.Errorf("experiment: %d drain-shipped resumes on the adopter, want 1", r3)
	}
	if r1 != 0 {
		return fmt.Errorf("experiment: %d restored resumes on the killed backend", r1)
	}
	// Every resume in this harness crossed a kill or a drain, so the
	// clients' resume counts and the backends' restored counts reconcile.
	if total := r2 + r3; total != rc1.Resumes+rc2.Resumes {
		return fmt.Errorf("experiment: %d restored resumes vs %d client resumes", total, rc1.Resumes+rc2.Resumes)
	}
	if gs.Get(stats.ClusterDrains) != 1 {
		return fmt.Errorf("experiment: %d drains recorded, want 1", gs.Get(stats.ClusterDrains))
	}
	if fo := gs.Backends[a1][stats.BackendFailovers]; fo < 1 {
		return fmt.Errorf("experiment: no failover recorded against the killed backend %s", a1)
	}
	if gs.Backends[a2][stats.BackendProbes] < 1 {
		return fmt.Errorf("experiment: the recovered replica was never probed successfully")
	}
	return nil
}
