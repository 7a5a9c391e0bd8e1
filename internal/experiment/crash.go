package experiment

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/faultnet"
	"repro/internal/proto"
	"repro/internal/stats"
)

// crashScene is the scene name the crash harness serves; it must survive
// the scene file's save/load unchanged so restarted instances answer the
// same hello.
const crashScene = proto.DefaultSceneName

// CrashSpec configures the kill-restart experiment: a resilient client
// rides a motion tour over a degraded link (faultnet drops and
// corruption) while the server process is killed at seeded random frames
// and restarted from its durable state — the scene file written at the
// first boot plus the session journal in DataDir. The zero value gets
// TramSoakSpec's defaults and three kills.
type CrashSpec struct {
	TramSoakSpec

	// Kills is the number of mid-tour server kills (default 3). The first
	// kill also injects a torn tail into the scene file, and the
	// second kill arms the journal failpoint so the dying server tears its
	// own park record mid-write — both recoveries are counter-verified.
	Kills int

	// ColdJournal deletes the session journal at every restart, modeling
	// an expired or lost journal: each resume misses and the client falls
	// back to a full re-plan, which must still converge byte-identically.
	ColdJournal bool

	// DataDir is the durable state directory ("" = fresh temp dir,
	// removed afterwards).
	DataDir string
}

func (s CrashSpec) fill() CrashSpec {
	s.TramSoakSpec = s.TramSoakSpec.fill()
	if s.Kills == 0 {
		s.Kills = 3
	}
	return s
}

// injectTornTail appends a partial record (a length header claiming more
// bytes than follow) to a persist file, modeling a crash mid-write. The
// next reader must truncate it away without inventing data.
func injectTornTail(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte{9, 0, 0, 0, 0xAB})
	return errors.Join(werr, f.Close())
}

// killRestart performs one kill cycle on the backend cfg booted: sever
// the scene's session server-side and kill the backend once it parked
// the session (on the second kill the armed failpoint tears that park
// record mid-append), optionally damage the durable state, and boot the
// next incarnation on the same address from cfg.DataDir.
func killRestart(b *cluster.Backend, cfg cluster.BackendConfig, cold bool, ord int) (*cluster.Backend, error) {
	if ord == 1 {
		// The park record the dying server writes for the severed session
		// tears four bytes in — mid-header — so recovery must truncate it
		// and this client's resume falls back to a re-plan.
		b.Journal().SetFailpoint(4)
	}
	if err := killParked(b, crashScene); err != nil {
		return nil, err
	}
	if ord == 0 {
		if err := injectTornTail(engine.CheckpointPath(cfg.DataDir, crashScene)); err != nil {
			return nil, err
		}
	}
	if cold {
		err := os.Remove(filepath.Join(cfg.DataDir, engine.SessionJournalFile))
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	next, err := cluster.StartBackend(cfg)
	if err != nil {
		return nil, err
	}
	if next.Registry().Len() == 0 {
		next.Stop()
		return nil, fmt.Errorf("experiment: restart recovered no scenes from %s", cfg.DataDir)
	}
	return next, nil
}

// RunCrash runs the kill-restart experiment and prints a summary. A
// resilient client streams a motion tour through faultnet while the
// server is killed Kills times at seeded random frames and restarted
// from its scene file and session journal. The experiment fails (as an
// error) unless:
//
//   - the client's final reconstructions are byte-identical to a
//     crash-free, fault-free oracle run,
//   - the scene file was written exactly once, at the first boot, and is
//     back to its written size: every restart read it, and the first
//     truncated the injected torn tail without inventing data,
//   - exactly the injected torn tails were truncated: the scene file's,
//     and the journal's torn park record unless the journal was deleted
//     before a restart could read it, and
//   - at least one resume was served from the recovered journal
//     (ColdJournal inverts this: the journal is deleted at each restart,
//     so no restored resumes may occur and the client must have fallen
//     back to at least one full re-plan).
func RunCrash(spec CrashSpec, w io.Writer) error {
	spec = spec.fill()

	dir, cleanup, err := dataDir(spec.DataDir, "crash-experiment-")
	if err != nil {
		return err
	}
	defer cleanup()

	soak := newTramSoak(spec.TramSoakSpec)
	stServer := stats.New()
	bcfg := cluster.BackendConfig{
		Scenes: cluster.Scenes(engine.SceneConfig{
			Name: crashScene, Dataset: soak.d, Levels: soakLevels, Shards: spec.Shards, Stats: stServer,
		}),
		DataDir:      dir,
		Stats:        stServer,
		FrameTimeout: soakFrameTimeout,
	}
	b, err := cluster.StartBackend(bcfg)
	if err != nil {
		return err
	}
	defer func() {
		if b != nil {
			b.Stop()
		}
	}()
	// Every later incarnation recovers from dir on the same address.
	bcfg.Scenes, bcfg.Addr = nil, b.Addr()

	// Crash-free, fault-free oracle against the first incarnation.
	oracle, err := rideOracle(b.Addr(), crashScene, soak)
	if err != nil {
		return err
	}

	// Kill schedule: distinct frames drawn in the middle of the tour,
	// leaving room after the last kill so resumption is exercised.
	lo, hi := spec.Steps/6, spec.Steps-2
	if hi <= lo {
		return fmt.Errorf("experiment: tour of %d steps too short for kills", spec.Steps)
	}
	killRng := rand.New(rand.NewSource(spec.Seed + 3))
	killSet := make(map[int]bool, spec.Kills)
	if spec.Kills > hi-lo {
		return fmt.Errorf("experiment: %d kills do not fit a %d-step tour", spec.Kills, spec.Steps)
	}
	for len(killSet) < spec.Kills {
		killSet[lo+killRng.Intn(hi-lo)] = true
	}
	killOrd := make(map[int]int, spec.Kills)
	ord := 0
	for i := 0; i < spec.Steps; i++ {
		if killSet[i] {
			killOrd[i] = ord
			ord++
		}
	}

	// Crashy run through the fault model.
	cfg := spec.link(faultnet.Config{Seed: spec.Seed + 1})
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
	restarts := 0
	for i := range soak.tour.Pos {
		if ord, ok := killOrd[i]; ok {
			if b, err = killRestart(b, bcfg, spec.ColdJournal, ord); err != nil {
				return fmt.Errorf("kill %d (frame %d): %w", ord, i, err)
			}
			restarts++
		}
		if err := soak.frame(rc, i); err != nil {
			return fmt.Errorf("frame %d did not survive crash-restart: %w", i, err)
		}
	}
	elapsed := time.Since(start)
	rc.Close()
	b.Stop()
	b = nil

	c := rc.Client()
	div := diverged(oracle, c)
	ss := stServer.Snapshot()
	restored := ss.Get(stats.ProtoResumesRestored)
	faults := stClient.Load(stats.LinkFaults)
	mode := "warm journal"
	if spec.ColdJournal {
		mode = "cold journal"
	}
	fmt.Fprintf(w, "crash-restart: %d objects, %d-step tram tour, %d kills (%s), drop ~[%d,%d] B\n",
		spec.Objects, spec.Steps, spec.Kills, mode, cfg.DropAfterMin, cfg.DropAfterMax)
	fmt.Fprintf(w, "  frames %d in %v · %d coefficients · %d connections · restarts %d\n",
		soak.tour.Len(), elapsed.Round(time.Millisecond), c.Coefficients, dialer.Dials(), restarts)
	fmt.Fprintf(w, "  durability: checkpoints %d (%d B) · replayed %d · tails truncated %d · quarantined %d · compactions %d\n",
		ss.Get(stats.EngineCheckpoints), ss.Get(stats.EngineCheckpointBytes), ss.Get(stats.EngineRecordsReplayed),
		ss.Get(stats.EngineTailsTruncated), ss.Get(stats.EngineRecordsQuarantined), ss.Get(stats.EngineJournalCompactions))
	cs := stClient.Snapshot()
	fmt.Fprintf(w, "  recovery: resumes %d · re-plans %d · restored-journal resumes %d · faults %d · split frames %d (%d pieces)\n",
		rc.Resumes, rc.Replans, restored, faults, cs.Get(stats.ClientSplitFrames), cs.Get(stats.ClientPieces))

	if div > 0 {
		fmt.Fprintf(w, "  convergence FAILED: %d/%d objects diverged from the crash-free oracle\n",
			div, len(oracle.Objects()))
		return fmt.Errorf("experiment: %d objects diverged across crash-restarts", div)
	}
	fmt.Fprintf(w, "  convergence OK: all %d objects byte-identical to the crash-free oracle\n",
		len(oracle.Objects()))

	if restarts != spec.Kills {
		return fmt.Errorf("experiment: %d restarts, expected %d", restarts, spec.Kills)
	}
	sceneFile, err := os.Stat(engine.CheckpointPath(dir, crashScene))
	if err != nil {
		return err
	}
	if ss.Get(stats.EngineCheckpoints) != 1 || ss.Get(stats.EngineCheckpointBytes) != sceneFile.Size() {
		return fmt.Errorf("experiment: scene file written %d times (%d B), want once (%d B on disk)",
			ss.Get(stats.EngineCheckpoints), ss.Get(stats.EngineCheckpointBytes), sceneFile.Size())
	}
	// Each restart replays the scene file's two records.
	if ss.Get(stats.EngineRecordsReplayed) < 2*int64(restarts) {
		return fmt.Errorf("experiment: %d records replayed, want at least the scene file's 2 per restart",
			ss.Get(stats.EngineRecordsReplayed))
	}
	wantTails := int64(1)
	if spec.Kills > 1 && !spec.ColdJournal {
		wantTails = 2
	}
	if got := ss.Get(stats.EngineTailsTruncated); got != wantTails {
		return fmt.Errorf("experiment: %d torn tails truncated, want the %d injected", got, wantTails)
	}
	if faults == 0 {
		return fmt.Errorf("experiment: fault injection was inactive")
	}
	if spec.ColdJournal {
		if restored != 0 {
			return fmt.Errorf("experiment: %d restored resumes despite cold journal", restored)
		}
		if rc.Replans < 1 {
			return fmt.Errorf("experiment: cold journal forced no re-plan")
		}
	} else if restored < 1 {
		return fmt.Errorf("experiment: no resume was served from the recovered journal")
	}
	return nil
}
