package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/abr"
	"repro/internal/engine"
	"repro/internal/faultnet"
	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// ABRSpec configures the bandwidth-adaptation acceptance experiment: a
// resilient client with the ABR loop enabled rides a motion tour across
// a loopback server while a faultnet throttle profile sweeps the link
// bandwidth between Low and High. The zero value gets quick-scale
// defaults sized so the soak finishes in a few seconds.
type ABRSpec struct {
	Seed    int64
	Objects int // dataset size (default 48)
	Steps   int // tour length (default 40)

	Profile string        // throttle schedule kind (default faultnet.ProfileOsc)
	LowBPS  int64         // schedule floor (default 16 KiB/s)
	HighBPS int64         // schedule ceiling (default 128 KiB/s)
	Period  time.Duration // schedule period (default 1.5 s)
}

// abrLatency is the ABR soak link's added latency.
const abrLatency = 5 * time.Millisecond

func (s ABRSpec) fill() (ABRSpec, error) {
	if s.Objects == 0 {
		s.Objects = 48
	}
	if s.Steps == 0 {
		s.Steps = 40
	}
	if s.Profile == "" {
		s.Profile = faultnet.ProfileOsc
	}
	if !faultnet.ValidProfileKind(s.Profile) {
		return s, fmt.Errorf("experiment: unknown throttle profile %q", s.Profile)
	}
	if s.LowBPS == 0 {
		s.LowBPS = 16 << 10
	}
	if s.HighBPS == 0 {
		s.HighBPS = 128 << 10
	}
	if s.Period == 0 {
		s.Period = 1500 * time.Millisecond
	}
	return s, nil
}

// RunABR runs the graceful-degradation soak and prints a summary. The
// acceptance claims, each enforced as an error:
//
//   - the session never stalls: every frame of the tour completes
//     without a retry or timeout, across the whole throttle trace;
//   - per-frame bytes track the controller: each response fits the
//     budget the estimator set for that frame;
//   - degradation engaged: the server truncated at least one response
//     during the low-bandwidth phases;
//   - the stats layer reconciles exactly: the server's budget counters
//     equal the client's own accounting, byte for byte.
func RunABR(spec ABRSpec, w io.Writer) error {
	spec, err := spec.fill()
	if err != nil {
		return err
	}

	d := workload.Generate(workload.Spec{NumObjects: spec.Objects, Levels: soakLevels, Seed: spec.Seed + 5})
	stServer := stats.New()
	b, err := startScene(engine.SceneConfig{Name: proto.DefaultSceneName, Source: d.Store, Levels: d.Spec.Levels, Stats: stServer})
	if err != nil {
		return err
	}
	defer b.Stop()

	// The throttle trace: one shared profile, so redials (there should
	// be none) would land mid-trace. The phase is seed-derived, giving
	// different seeds different alignments of the same shape.
	profile := &faultnet.Profile{
		Kind: spec.Profile, Low: spec.LowBPS, High: spec.HighBPS, Period: spec.Period,
		Phase: (time.Duration(spec.Seed) * 293 * time.Millisecond) % spec.Period,
	}
	stClient := stats.New()
	dialer := faultnet.NewDialer(b.Addr(), faultnet.Config{
		Seed: spec.Seed + 1, Latency: abrLatency, Throttle: profile,
	})
	dialer.SetStats(stClient)
	rcfg := resilientConfig(spec.Seed+2, stClient)
	rcfg.Dial = dialer.Dial
	// The client's default retry policy: 8 attempts, 50 ms–2 s backoff.
	rcfg.MaxAttempts, rcfg.BackoffBase, rcfg.BackoffMax = 0, 0, 0
	rcfg.ABR = &abr.Config{FrameInterval: 100 * time.Millisecond, MinBudget: 2 << 10}
	rc, err := proto.DialResilient(rcfg)
	if err != nil {
		return err
	}
	defer rc.Close()

	// A 30% query frame over the default density, moving fast enough
	// (VMax = one window side, so a frame shares ~2/3 of its area with
	// the last) that the fresh content per frame stays well above the
	// trough-phase budget — the low phases of the trace must truncate.
	space := d.Store.Bounds().XY()
	side := d.QuerySide(0.3)
	tour := motion.NewTour(motion.Tram, motion.TourSpec{
		Space: space, Steps: spec.Steps, Speed: 0.3, VMax: side,
	}, rand.New(rand.NewSource(spec.Seed)))

	var sumBudget, minBudget, maxBudget, lastBudget int64
	start := time.Now()
	for i, pos := range tour.Pos {
		// Budget() is pure in the estimator's state, so reading it here
		// pins exactly the budget the frame call recomputes.
		budget := rc.ABR().Budget()
		n, err := rc.Frame(geom.RectAround(pos, side), tour.SpeedAt(i))
		if err != nil {
			return fmt.Errorf("experiment: frame %d stalled: %w", i, err)
		}
		if got := int64(n) * wavelet.WireBytes; got > budget {
			return fmt.Errorf("experiment: frame %d received %d bytes over its %d budget", i, got, budget)
		}
		sumBudget += budget
		if i == 0 || budget < minBudget {
			minBudget = budget
		}
		if budget > maxBudget {
			maxBudget = budget
		}
		lastBudget = budget
	}
	elapsed := time.Since(start)

	c := rc.Client()
	cs, ss := stClient.Snapshot(), stServer.Snapshot()
	fmt.Fprintf(w, "abr: %d objects, %d-step tram tour, %s link, %v latency\n",
		spec.Objects, spec.Steps, profile, abrLatency)
	fmt.Fprintf(w, "  frames %d in %v · %d coefficients · %d bytes · budget %d..%d B/frame\n",
		tour.Len(), elapsed.Round(time.Millisecond), c.Coefficients, c.BytesReceived, minBudget, maxBudget)
	fmt.Fprintf(w, "  estimator: bandwidth %d B/s · rtt %v · truncated %d responses (%d coeffs deferred)\n",
		rc.ABR().Bandwidth(), rc.ABR().RTT().Round(time.Millisecond), ss.Get(stats.RetrievalTruncated), ss.Get(stats.RetrievalCoeffsDropped))

	// Never-stalls, strictly: no frame needed a second attempt.
	if rc.Retries != 0 || rc.Timeouts != 0 {
		return fmt.Errorf("experiment: session stalled: %d retries, %d timeouts", rc.Retries, rc.Timeouts)
	}
	// Degradation engaged during the low phases.
	if ss.Get(stats.RetrievalTruncated) == 0 {
		return fmt.Errorf("experiment: throttle trace never forced a truncation")
	}
	// Exact reconciliation between the client's accounting and the
	// server's budget counters.
	if n := ss.Get(stats.RetrievalBudgetRequests); n != int64(spec.Steps) {
		return fmt.Errorf("experiment: server saw %d budgeted requests, client sent %d", n, spec.Steps)
	}
	if n := ss.Get(stats.RetrievalBudgetBytesAsked); n != sumBudget {
		return fmt.Errorf("experiment: server saw %d budget bytes requested, client asked %d", n, sumBudget)
	}
	if n := ss.Get(stats.RetrievalBudgetBytesServed); n != c.BytesReceived {
		return fmt.Errorf("experiment: server served %d bytes, client received %d", n, c.BytesReceived)
	}
	if n := cs.Get(stats.ClientABRBudget); n != lastBudget {
		return fmt.Errorf("experiment: budget gauge %d, last frame budgeted %d", n, lastBudget)
	}
	if bw, rtt := cs.Get(stats.ClientABRBandwidth), cs.Get(stats.ClientABRRTTNs); bw <= 0 || rtt < 0 {
		return fmt.Errorf("experiment: estimator gauges unset (bw %d, rtt %d ns)", bw, rtt)
	}
	fmt.Fprintf(w, "  acceptance OK: no stalls, every frame within budget, stats reconcile exactly\n")
	return nil
}
