package experiment

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/proto"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/workload"
)

// crowdScene names the scene both crowd-serving servers expose.
const crowdScene = "plaza"

// CrowdRunSpec configures the crowd-serving acceptance soak: a flocked
// crowd tours two identically built servers over the wire — one with
// the coalescer and the hot-region subscription layer enabled, one
// serving every session independently — and every frame of every client
// must come back identical, coefficient for coefficient and I/O count
// for I/O count. The zero value gets quick-scale defaults sized for CI.
type CrowdRunSpec struct {
	Seed       int64
	Objects    int     // dataset size (default 48)
	Clients    int     // crowd size (default 16)
	Steps      int     // lockstep frames per client (default 36)
	Attractors int     // shared attractor paths (default 3)
	Overlap    float64 // flocked fraction (default 0.75; negative → 0)
	Shards     int     // index shard count per scene
}

func (s CrowdRunSpec) fill() CrowdRunSpec {
	if s.Objects == 0 {
		s.Objects = 48
	}
	if s.Clients == 0 {
		s.Clients = 16
	}
	if s.Steps == 0 {
		s.Steps = 36
	}
	if s.Attractors == 0 {
		s.Attractors = 3
	}
	if s.Overlap == 0 {
		s.Overlap = 0.75
	}
	if s.Overlap < 0 {
		s.Overlap = 0
	}
	return s
}

// crowdFrame is one lockstep step of one client.
type crowdFrame struct {
	q     geom.Rect2
	speed float64
}

// crowdSession drives one raw wire session through the lockstep soak:
// it blocks on the shared per-step barrier, issues its frame, records
// the full parsed response, and signals the step's completion group —
// every remaining step's too when it stops early, so the barrier never
// waits on a dead session. Recording the response verbatim (every Coeff
// record plus the I/O count) is what makes the byte-identity comparison
// exact.
func crowdSession(addr string, frames []crowdFrame, starts []chan struct{}, steps []sync.WaitGroup) ([]proto.Response, error) {
	signalled := 0
	defer func() {
		for ; signalled < len(frames); signalled++ {
			steps[signalled].Done()
		}
	}()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	r, w := proto.NewReader(conn), proto.NewWriter(conn)
	if tag, err := r.ReadTag(); err != nil || tag != proto.TagHello {
		return nil, fmt.Errorf("handshake tag %d err %v", tag, err)
	}
	if _, err := r.ReadHello(); err != nil {
		return nil, err
	}

	planner := retrieval.NewClient(nil, nil)
	out := make([]proto.Response, len(frames))
	for i, f := range frames {
		<-starts[i]
		subs := planner.PlanFrame(f.q, f.speed)
		if err := w.WriteRequest(proto.Request{Subs: subs}); err != nil {
			return nil, err
		}
		tag, err := r.ReadTag()
		if err != nil {
			return nil, err
		}
		if tag != proto.TagResponse {
			if tag == proto.TagError {
				msg, _ := r.ReadError()
				return nil, fmt.Errorf("server error: %s", msg)
			}
			return nil, fmt.Errorf("unexpected tag %d", tag)
		}
		if out[i], err = r.ReadResponse(); err != nil {
			return nil, err
		}
		planner.Advance(f.q, f.speed)
		steps[i].Done()
		signalled++
	}
	w.WriteBye()
	return out, nil
}

// lockstep replays every client's frames against addr, one raw session
// per client, releasing all clients together one step at a time. The
// index is read-only, so the concurrent replay is as deterministic as a
// serial one.
func lockstep(addr string, frames [][]crowdFrame) ([][]proto.Response, error) {
	steps := len(frames[0])
	starts := make([]chan struct{}, steps)
	done := make([]sync.WaitGroup, steps)
	for s := range starts {
		starts[s] = make(chan struct{})
		done[s].Add(len(frames))
	}
	resp := make([][]proto.Response, len(frames))
	errs := make([]error, len(frames))
	var wg sync.WaitGroup
	for i := range frames {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp[i], errs[i] = crowdSession(addr, frames[i], starts, done)
		}(i)
	}
	for s := 0; s < steps; s++ {
		close(starts[s])
		done[s].Wait()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
	}
	return resp, nil
}

// RunCrowd runs the crowd-serving acceptance soak and prints a summary.
// The acceptance claims, each enforced as an error:
//
//   - coalesced serving is invisible: every frame of every client
//     matches the independent server's frame exactly, every coefficient
//     record and the reported index I/O included;
//   - at positive overlap, sharing cut index work: sub-queries were
//     routed through the coalescer (Routed > 0) and coalesced serving
//     spent fewer index passes (first touches + led) than
//     independent serving. Shared is printed, not gated:
//     second-touch admission usually sends a flock's second ask to the
//     hot cache before it can join the first ask's flight;
//   - the multicast path engaged at positive overlap: cached serialized
//     payloads were replayed instead of re-encoded (PayloadHits > 0);
//   - the counters reconcile exactly: Routed == Led + Shared, and every
//     sub-query was a hot hit, a first touch or routed;
//   - subscriptions drain: after the last session closes, the
//     subscriber gauge returns to zero.
func RunCrowd(spec CrowdRunSpec, w io.Writer) error {
	spec = spec.fill()

	stCo, stInd := stats.New(), stats.New()
	boot := func(st *stats.Stats) (*cluster.Backend, *engine.Scene, error) {
		d := workload.Generate(workload.Spec{NumObjects: spec.Objects, Levels: soakLevels, Seed: spec.Seed + 5})
		b, err := startScene(engine.SceneConfig{Name: crowdScene, Dataset: d, Levels: soakLevels, Shards: spec.Shards, Stats: st})
		if err != nil {
			return nil, nil, err
		}
		return b, b.Registry().Default(), nil
	}
	bCo, scCo, err := boot(stCo)
	if err != nil {
		return err
	}
	defer bCo.Stop()
	// No session has dialed yet, so nothing is in flight while the
	// sharing layers are wired in. A long linger window: near-simultaneous
	// flock arrivals that just miss a flight still share its result
	// within the step.
	bCo.Registry().EnableHotCache(hotcache.Config{}, stCo)
	bCo.Registry().EnableCoalescer(retrieval.CoalescerConfig{Window: 50 * time.Millisecond}, stCo)
	bInd, _, err := boot(stInd)
	if err != nil {
		return err
	}
	defer bInd.Stop()
	if scCo.Server.Coalescer() == nil || scCo.Server.HotCache() == nil {
		return fmt.Errorf("experiment: coalesced server came up without coalescer or hot cache")
	}

	// The crowd: flocked clients share attractor paths float-for-float,
	// so their per-step windows coincide — the case coalescing exploits.
	space := scCo.Dataset.Store.Bounds().XY()
	crowd := workload.GenerateCrowd(workload.CrowdSpec{
		Space:      space,
		Clients:    spec.Clients,
		Steps:      spec.Steps,
		Attractors: spec.Attractors,
		Overlap:    spec.Overlap,
		Seed:       spec.Seed,
	})
	side := scCo.Dataset.QuerySide(0.10)
	frames := make([][]crowdFrame, spec.Clients)
	for i, tour := range crowd {
		frames[i] = make([]crowdFrame, spec.Steps)
		for s, pos := range tour.Pos {
			frames[i][s] = crowdFrame{q: geom.RectAround(pos, side), speed: tour.SpeedAt(s)}
		}
	}

	start := time.Now()
	// Independent baseline first, then the coalesced run under the same
	// barriers, where every client of a step fires concurrently — which
	// is what gives the coalescer followers.
	indResp, err := lockstep(bInd.Addr(), frames)
	if err != nil {
		return fmt.Errorf("independent %w", err)
	}
	coResp, err := lockstep(bCo.Addr(), frames)
	if err != nil {
		return fmt.Errorf("coalesced %w", err)
	}
	elapsed := time.Since(start)

	// Byte-identity: every client, every frame, every record.
	diverged := 0
	for i := 0; i < spec.Clients; i++ {
		for s := 0; s < spec.Steps; s++ {
			a, b := coResp[i][s], indResp[i][s]
			if len(a.Coeffs) != len(b.Coeffs) || a.IO != b.IO || a.Dropped != b.Dropped {
				diverged++
				continue
			}
			for k := range a.Coeffs {
				if a.Coeffs[k] != b.Coeffs[k] {
					diverged++
					break
				}
			}
		}
	}

	// Sessions close via Bye but the server goroutines race the soak
	// body; wait for both gauges to drain before reading counters.
	if !waitUntil(5*time.Second, func() bool {
		return stCo.Load(stats.ProtoSessionsActive) == 0 && stInd.Load(stats.ProtoSessionsActive) == 0
	}) {
		return fmt.Errorf("experiment: sessions never drained (%d coalesced, %d independent active)",
			stCo.Load(stats.ProtoSessionsActive), stInd.Load(stats.ProtoSessionsActive))
	}

	co, ind := stCo.Snapshot(), stInd.Snapshot()
	firstTouches, subQueries, indSubQueries := co.Get(stats.RetrievalFirstTouches), co.Get(stats.RetrievalSubQueries), ind.Get(stats.RetrievalSubQueries)
	routed, led, shared := co.Get(stats.CoalescerRouted), co.Get(stats.CoalescerLed), co.Get(stats.CoalescerShared)
	passes := firstTouches + led
	fmt.Fprintf(w, "crowd: %s, %d objects per scene\n",
		workload.CrowdSpec{Clients: spec.Clients, Steps: spec.Steps, Attractors: spec.Attractors, Overlap: spec.Overlap, Seed: spec.Seed},
		spec.Objects)
	fmt.Fprintf(w, "  coalescer: %d first touches · %d routed = %d led + %d shared -> %d index passes (independent: %d)\n",
		firstTouches, routed, led, shared, passes, indSubQueries)
	fmt.Fprintf(w, "  hot regions: %d hits · %d payload replays · %v elapsed\n",
		co.Get(stats.HotHits), co.Get(stats.HotPayloadHits), elapsed.Round(time.Millisecond))

	if diverged > 0 {
		return fmt.Errorf("experiment: %d of %d frames diverged from the independent server",
			diverged, spec.Clients*spec.Steps)
	}
	fmt.Fprintf(w, "  identity OK: all %d frames byte-identical to independent serving\n",
		spec.Clients*spec.Steps)

	wantReq := int64(spec.Clients * spec.Steps)
	if co.Get(stats.RetrievalRequests) != wantReq || ind.Get(stats.RetrievalRequests) != wantReq {
		return fmt.Errorf("experiment: requests %d coalesced / %d independent, want %d each",
			co.Get(stats.RetrievalRequests), ind.Get(stats.RetrievalRequests), wantReq)
	}
	if got := led + shared; got != routed {
		return fmt.Errorf("experiment: coalescer counters do not reconcile: %d routed vs %d accounted",
			routed, got)
	}
	// Cross-layer reconciliation: both servers planned identical
	// sub-queries, and on the coalesced side every one of them was a
	// hot-cache hit, a first touch searched past both layers, or routed
	// through the coalescer — exactly.
	if subQueries != indSubQueries {
		return fmt.Errorf("experiment: sub-query plans diverged: %d coalesced vs %d independent",
			subQueries, indSubQueries)
	}
	if co.Get(stats.HotHits)+firstTouches+routed != subQueries {
		return fmt.Errorf("experiment: %d hot hits + %d first touches + %d routed != %d sub-queries",
			co.Get(stats.HotHits), firstTouches, routed, subQueries)
	}
	// The sharing gates only apply to a crowd that actually flocks; a
	// zero-overlap soak is a pure no-regression identity check in which
	// every sub-query is a first touch. The pass-reduction gate is
	// deterministic: per flock per step one member is the first touch and
	// one leads the flight — every other member adopts the flight or hits
	// the hot cache, whichever it races into.
	if spec.Overlap > 0 {
		if routed == 0 {
			return fmt.Errorf("experiment: nothing was routed through the coalescer")
		}
		if passes >= indSubQueries {
			return fmt.Errorf("experiment: coalesced serving spent %d index passes, independent %d — nothing shared",
				passes, indSubQueries)
		}
		if co.Get(stats.HotPayloadHits) == 0 {
			return fmt.Errorf("experiment: the multicast payload path never replayed a cached payload")
		}
	}
	if co.Get(stats.HotSubscribers) != 0 {
		return fmt.Errorf("experiment: %d subscriptions leaked past session close", co.Get(stats.HotSubscribers))
	}
	if co.Get(stats.ProtoErrors) != 0 || ind.Get(stats.ProtoErrors) != 0 {
		return fmt.Errorf("experiment: servers recorded %d+%d errors", co.Get(stats.ProtoErrors), ind.Get(stats.ProtoErrors))
	}
	fmt.Fprintf(w, "  acceptance OK: counters reconcile exactly, sharing and multicast engaged, subscriptions drained\n")
	return nil
}
