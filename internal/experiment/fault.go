package experiment

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/faultnet"
	"repro/internal/proto"
	"repro/internal/stats"
)

// FaultSpec configures the fault-injection experiment: a resilient
// client rides a motion tour across a loopback server while faultnet
// drops, corrupts, delays, and throttles the link. The zero value gets
// quick-scale defaults.
type FaultSpec struct {
	Seed    int64
	Objects int // dataset size (default 40)
	Levels  int // subdivision depth (default 3)
	Steps   int // tour length (default 120)
	Shards  int // index shard count (≤ 1 = one shard)

	DropMeanBytes  int64 // mean traffic between connection drops (default 16 KB)
	CorruptBytes   int64 // mean read bytes between bit flips (default 12 KB)
	Latency        time.Duration
	BytesPerSecond int64
}

func (s FaultSpec) fill() FaultSpec {
	if s.Objects == 0 {
		s.Objects = 40
	}
	if s.Levels == 0 {
		s.Levels = 3
	}
	if s.Steps == 0 {
		s.Steps = 120
	}
	return s
}

// faultLink sets cfg's drop and corrupt windows to [m/2, 3m/2] around
// the given mean byte distances, 16 KB and 12 KB when zero.
func faultLink(cfg faultnet.Config, dropMean, corruptMean int64) faultnet.Config {
	if dropMean == 0 {
		dropMean = 16_000
	}
	if corruptMean == 0 {
		corruptMean = 12_000
	}
	cfg.DropAfterMin, cfg.DropAfterMax = dropMean/2, 3*dropMean/2
	cfg.CorruptAfterMin, cfg.CorruptAfterMax = corruptMean/2, 3*corruptMean/2
	return cfg
}

// RunFault runs the fault-injection experiment and prints a summary: the
// injected fault volume, what the recovery machinery did about it
// (retries, resumes, degraded mode), and whether the client's final
// reconstructions are byte-identical to a fault-free oracle run — the
// end-to-end correctness claim of the fault-tolerance layer. A
// convergence failure, an oracle that retrieved nothing, or a link that
// injected no fault is returned as an error.
func RunFault(spec FaultSpec, w io.Writer) error {
	spec = spec.fill()

	soak := newTramSoak(spec.Seed, spec.Objects, spec.Levels, spec.Steps)
	stServer := stats.New()
	b, err := startScene(engine.SceneConfig{
		Name: proto.DefaultSceneName, Dataset: soak.d, Levels: soak.d.Spec.Levels, Shards: spec.Shards, Stats: stServer,
	})
	if err != nil {
		return err
	}
	defer b.Stop()

	oracle, err := rideOracle(b.Addr(), proto.DefaultSceneName, soak)
	if err != nil {
		return err
	}

	// Faulty run.
	cfg := faultLink(faultnet.Config{
		Seed:           spec.Seed + 1,
		Latency:        spec.Latency,
		BytesPerSecond: spec.BytesPerSecond,
	}, spec.DropMeanBytes, spec.CorruptBytes)
	stClient := stats.New()
	dialer := faultnet.NewDialer(b.Addr(), cfg)
	dialer.SetStats(stClient)
	rc, err := proto.DialResilient(proto.ResilientConfig{
		Dial:         dialer.Dial,
		FrameTimeout: 10 * time.Second,
		MaxAttempts:  12,
		BackoffBase:  time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		Seed:         spec.Seed + 2,
		DegradeAfter: 3,
		Stats:        stClient,
	})
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
	fmt.Fprintf(w, "  resume %d/%d hit/miss (server view %d/%d) · degraded %d (floor %.2f)\n",
		cs.Get(stats.ClientResumes), cs.Get(stats.ClientReplans), ss.Get(stats.ProtoResumeHits), ss.Get(stats.ProtoResumeMisses),
		cs.Get(stats.ClientDegraded), rc.DegradeFloor())
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
