package experiment

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/faultnet"
	"repro/internal/proto"
	"repro/internal/stats"
)

// FaultSpec configures the fault-injection experiment: a resilient
// client rides a motion tour across a loopback server while faultnet
// drops, corrupts, delays, and throttles the link. The zero value gets
// TramSoakSpec's defaults, unthrottled and without added latency.
type FaultSpec struct {
	TramSoakSpec
	Latency        time.Duration
	BytesPerSecond int64
}

// RunFault runs the fault-injection experiment and prints a summary: the
// injected fault volume, what the recovery machinery did about it
// (retries, resumes, frames split into budgeted pieces), and whether the
// client's final reconstructions are byte-identical to a fault-free
// oracle run — the end-to-end correctness claim of the fault-tolerance
// layer. A convergence failure, an oracle that retrieved nothing, or a
// link that injected no fault is returned as an error.
func RunFault(spec FaultSpec, w io.Writer) error {
	spec.TramSoakSpec = spec.fill()

	soak := newTramSoak(spec.TramSoakSpec)
	stServer := stats.New()
	bcfg := cluster.BackendConfig{
		Scenes: cluster.Scenes(engine.SceneConfig{
			Name: proto.DefaultSceneName, Dataset: soak.d, Levels: soak.d.Spec.Levels, Shards: spec.Shards, Stats: stServer,
		}),
		Stats: stServer,
	}
	if spec.BytesPerSecond == 0 {
		// A throttled link needs its long frames; an unthrottled one gets
		// the crash soak's frame deadline, which ends the stall a flipped
		// response count causes (see soakFrameTimeout).
		bcfg.FrameTimeout = soakFrameTimeout
	}
	b, err := cluster.StartBackend(bcfg)
	if err != nil {
		return err
	}
	defer b.Stop()

	oracle, err := rideOracle(b.Addr(), proto.DefaultSceneName, soak)
	if err != nil {
		return err
	}

	// Faulty run.
	cfg := spec.link(faultnet.Config{
		Seed:           spec.Seed + 1,
		Latency:        spec.Latency,
		BytesPerSecond: spec.BytesPerSecond,
	})
	stClient := stats.New()
	dialer := faultnet.NewDialer(b.Addr(), cfg)
	dialer.SetStats(stClient)
	rcfg := resilientConfig(spec.Seed+2, stClient)
	rcfg.Dial = dialer.Dial
	rc, err := proto.DialResilient(rcfg)
	if err != nil {
		return err
	}
	defer rc.Close()
	start := time.Now()
	for i := range soak.tour.Pos {
		if err := soak.frame(rc, i); err != nil {
			return fmt.Errorf("frame %d did not survive injected faults: %w", i, err)
		}
	}
	elapsed := time.Since(start)

	c := rc.Client()
	cs, ss := stClient.Snapshot(), stServer.Snapshot()
	fmt.Fprintf(w, "fault injection: %d objects, %d-step tram tour, drop ~[%d,%d] B, corrupt ~[%d,%d] B\n",
		spec.Objects, spec.Steps, cfg.DropAfterMin, cfg.DropAfterMax, cfg.CorruptAfterMin, cfg.CorruptAfterMax)
	fmt.Fprintf(w, "  frames %d in %v · %d coefficients · %d bytes\n",
		soak.tour.Len(), elapsed.Round(time.Millisecond), c.Coefficients, c.BytesReceived)
	fmt.Fprintf(w, "  faults injected %d · connections %d · retries %d (%d timeouts)\n",
		cs.Get(stats.LinkFaults), dialer.Dials(), cs.Get(stats.ClientRetries), cs.Get(stats.ClientTimeouts))
	fmt.Fprintf(w, "  resume %d/%d hit/miss (server view %d/%d) · split frames %d (%d pieces)\n",
		cs.Get(stats.ClientResumes), cs.Get(stats.ClientReplans), ss.Get(stats.ProtoResumeHits), ss.Get(stats.ProtoResumeMisses),
		cs.Get(stats.ClientSplitFrames), cs.Get(stats.ClientPieces))
	if n := diverged(oracle, c); n > 0 {
		fmt.Fprintf(w, "  convergence FAILED: %d/%d objects diverged from the fault-free oracle\n",
			n, len(oracle.Objects()))
		return fmt.Errorf("experiment: %d objects diverged under faults", n)
	}
	fmt.Fprintf(w, "  convergence OK: all %d objects byte-identical to the fault-free oracle\n",
		len(oracle.Objects()))
	if cs.Get(stats.LinkFaults) == 0 {
		return fmt.Errorf("experiment: fault injection was inactive")
	}
	return nil
}
