package experiment

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/persist"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The pieces every wire acceptance soak shares: one serving stack
// (cluster.Backend, the stack the crash and cluster soaks kill and
// restart), one seeded tram tour, one fault-free oracle ride and one
// byte-identity check. Each soak keeps only what its own plane adds.

// soakLevels is the subdivision depth of the dataset every soak and
// benchmark sweep here generates (the out-of-core soak's city has its
// own).
const soakLevels = 3

// dataDir returns dir, or, when dir is "", a fresh temp directory that
// the returned cleanup removes.
func dataDir(dir, prefix string) (string, func(), error) {
	if dir != "" {
		return dir, func() {}, nil
	}
	tmp, err := os.MkdirTemp("", prefix)
	if err != nil {
		return "", nil, err
	}
	return tmp, func() { os.RemoveAll(tmp) }, nil
}

// resilientConfig is the retry policy of the crash soak's
// resilient client: a generous frame timeout and 12 quick retries
// (1–50 ms backoff) to ride out a link drop or a server kill. The caller
// says how to dial; the ABR and cluster soaks set their own bounds.
func resilientConfig(seed int64, st *stats.Stats) proto.ResilientConfig {
	return proto.ResilientConfig{
		FrameTimeout: 10 * time.Second,
		MaxAttempts:  12,
		BackoffBase:  time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		Seed:         seed,
		Stats:        st,
	}
}

// soakFrameTimeout is the frame deadline of the crash soak's backends.
// A bit flipped in a response's count field leaves the client reading
// records the server never sent, while the server, done with the frame,
// waits for the next request. The backends' idle timeout is 0, so the
// deadline set when a frame's tag arrives also bounds that wait: the
// server hangs up after a second and the client retries, instead of
// waiting out its own 10 s frame timeout.
const soakFrameTimeout = time.Second

// killParked severs scene's live session on b — SeverScene returns once
// its park record is in b's session journal, or, with the journal's
// failpoint armed, has torn it — and kills b, so the next incarnation
// recovers exactly that park.
func killParked(b *cluster.Backend, scene string) error {
	n, err := b.Server().SeverScene(scene)
	if err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	if n != 1 {
		return fmt.Errorf("experiment: severed %d sessions of scene %q, want 1", n, scene)
	}
	b.Kill()
	return nil
}

// startScene boots a memory-only backend serving one scene, its counters
// in sc.Stats.
func startScene(sc engine.SceneConfig) (*cluster.Backend, error) {
	return cluster.StartBackend(cluster.BackendConfig{Scenes: cluster.Scenes(sc), Stats: sc.Stats})
}

// TramSoakSpec is the scale the crash and cluster soaks share: a
// resilient client rides a seeded tram tour. The zero value gets
// defaults at which every seed 1–50 retrieves at least 20 objects.
type TramSoakSpec struct {
	Seed    int64
	Objects int // dataset size (default 300)
	Steps   int // tour length (default 300)
	Shards  int // index shard count (≤ 1 = one shard)
}

func (s TramSoakSpec) fill() TramSoakSpec {
	if s.Objects == 0 {
		s.Objects = 300
	}
	if s.Steps == 0 {
		s.Steps = 300
	}
	return s
}

// tramSoak is the dataset and seeded tram tour the crash and cluster
// soaks ride: steps frames at speed 0.25 with a 10 % query
// window.
type tramSoak struct {
	d    *workload.Dataset
	tour *motion.Tour
	side float64
}

// newTramSoak builds s's dataset and tour; s is already filled.
func newTramSoak(s TramSoakSpec) tramSoak {
	d := workload.Generate(workload.Spec{NumObjects: s.Objects, Levels: soakLevels, Seed: s.Seed + 5})
	tour := motion.NewTour(motion.Tram, motion.TourSpec{
		Space: d.Store.Bounds().XY(), Steps: s.Steps, Speed: 0.25,
	}, rand.New(rand.NewSource(s.Seed)))
	return tramSoak{d: d, tour: tour, side: d.QuerySide(0.10)}
}

// frame asks c for the tour's i-th window.
func (s tramSoak) frame(c interface {
	Frame(geom.Rect2, float64) (int, error)
}, i int) error {
	_, err := c.Frame(geom.RectAround(s.tour.Pos[i], s.side), s.tour.SpeedAt(i))
	return err
}

// rideOracle rides the whole tour over a plain, fault-free connection to
// scene on addr and returns the closed client holding the reference
// meshes. An oracle that retrieved no objects would make every later
// comparison vacuous, so it is an error.
func rideOracle(addr, scene string, s tramSoak) (*proto.Client, error) {
	oracle, err := proto.DialScene(addr, scene, nil)
	if err != nil {
		return nil, err
	}
	defer oracle.Close()
	for i := range s.tour.Pos {
		if err := s.frame(oracle, i); err != nil {
			return nil, fmt.Errorf("oracle frame %d: %w", i, err)
		}
	}
	if len(oracle.Objects()) == 0 {
		return nil, fmt.Errorf("experiment: oracle retrieved no objects; enlarge the tour or dataset")
	}
	return oracle, nil
}

// sameObject reports whether got holds object id exactly as want does:
// the same coefficient count and a bit-identical reconstruction.
func sameObject(want, got *proto.Client, id int32) bool {
	wm, ok := want.Mesh(id)
	if !ok {
		return false
	}
	gm, ok := got.Mesh(id)
	if !ok || got.CoeffCount(id) != want.CoeffCount(id) || gm.NumVerts() != wm.NumVerts() {
		return false
	}
	for i := range wm.Verts {
		if wm.Verts[i] != gm.Verts[i] {
			return false
		}
	}
	return true
}

// diverged counts the oracle's objects that got does not hold exactly.
func diverged(oracle, got *proto.Client) int {
	n := 0
	for _, id := range oracle.Objects() {
		if !sameObject(oracle, got, id) {
			n++
		}
	}
	return n
}

// pagerAtRest checks the paging counters' exact accounting once no frame
// is in flight: every pin was a hit or a fault, every resident page is a
// fault not yet evicted, and nothing is still pinned.
func pagerAtRest(st persist.PagerStats) error {
	if st.Pins != st.Hits+st.Faults {
		return fmt.Errorf("experiment: pager pins %d != hits %d + faults %d", st.Pins, st.Hits, st.Faults)
	}
	if st.PagesResident != st.Faults-st.Evictions {
		return fmt.Errorf("experiment: resident pages %d != faults %d - evictions %d",
			st.PagesResident, st.Faults, st.Evictions)
	}
	if st.PagesPinned != 0 {
		return fmt.Errorf("experiment: %d pages still pinned after the sessions closed", st.PagesPinned)
	}
	return nil
}

// waitUntil polls cond every couple of milliseconds until it holds or
// the timeout expires; reports whether it held.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}
