package experiment

import (
	"bytes"
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
	"repro/internal/persist"
	"repro/internal/proto"
	"repro/internal/stats"
)

// crashScene is the scene name the crash harness serves; restarted
// instances serve it from its segment, scene-<name>.seg, and answer the
// same hello.
const crashScene = proto.DefaultSceneName

// CrashSpec configures the kill-and-fault soak: a resilient client rides
// a motion tour over a faulty link (faultnet drops and corruption) while
// the server process is killed three times at seeded random frames and
// restarted from its durable state — the scene's segment written at the
// first boot plus the session journal in DataDir. The zero value gets
// TramSoakSpec's defaults and a 16 KB / 12 KB drop / corrupt link.
type CrashSpec struct {
	TramSoakSpec

	DropMeanBytes int64 // mean traffic between connection drops (default 16 KB)
	CorruptBytes  int64 // mean read bytes between bit flips (default 12 KB)

	// DataDir is the durable state directory ("" = fresh temp dir,
	// removed afterwards).
	DataDir string
}

func (s CrashSpec) fill() CrashSpec {
	s.TramSoakSpec = s.TramSoakSpec.fill()
	if s.DropMeanBytes == 0 {
		s.DropMeanBytes = 16_000
	}
	if s.CorruptBytes == 0 {
		s.CorruptBytes = 12_000
	}
	return s
}

// The kill schedule: each kill damages the durable state its own way
// before the restart, and RunCrash checks what that restart did.
const (
	killDamagedScene = iota // corrupt a page of the scene's segment; the restart rewrites it and serves a restored resume
	killTornPark            // tear the journal's park record of the severed session
	killLostJournal         // delete the journal: no restored resume, a re-plan instead
	crashKills
)

// damagePage flips a byte inside the first page of a segment, as a bad
// sector would: the page no longer matches its CRC, so a restart that
// reads the segment into memory must refuse it.
func damagePage(path string) error {
	seg, err := persist.OpenSegment(path)
	if err != nil {
		return err
	}
	off := seg.PageOffset(0) + 3
	seg.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	b := make([]byte, 1)
	_, err = f.ReadAt(b, off)
	if err == nil {
		b[0] ^= 0xFF
		_, err = f.WriteAt(b, off)
	}
	return errors.Join(err, f.Close())
}

// killRestart performs kill ord of the schedule on the backend cfg
// booted: sever the scene's session server-side and kill the backend
// once it parked the session, damage the durable state as the schedule
// says, and boot the next incarnation on the same address from
// cfg.DataDir.
func killRestart(b *cluster.Backend, cfg cluster.BackendConfig, ord int) (*cluster.Backend, error) {
	if ord == killTornPark {
		// The park record the dying server writes for the severed session
		// tears four bytes in — mid-header — so recovery must truncate it
		// and this client's resume falls back to a re-plan.
		b.Journal().SetFailpoint(4)
	}
	if err := killParked(b, crashScene); err != nil {
		return nil, err
	}
	switch ord {
	case killDamagedScene:
		if err := damagePage(cluster.SegmentPath(cfg.DataDir, crashScene)); err != nil {
			return nil, err
		}
	case killLostJournal:
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

// crashMark is what the soak's counters read at one kill (and at the
// end of the tour); the difference of two marks is what one
// incarnation did.
type crashMark struct {
	restored, tails, quarantined, replans int64
}

func (m crashMark) sub(o crashMark) crashMark {
	return crashMark{m.restored - o.restored, m.tails - o.tails, m.quarantined - o.quarantined, m.replans - o.replans}
}

// RunCrash runs the kill-and-fault soak and prints a summary. A
// resilient client streams a motion tour through faultnet while the
// server is killed three times at seeded random frames and restarted
// from its segment and session journal: the first kill corrupts a page
// of the segment, the second tears the severed session's park record
// and the third deletes the journal. The soak fails (as an error)
// unless:
//
//   - the client's final reconstructions are byte-identical to a
//     crash-free, fault-free oracle run, which retrieved at least one
//     object, and the link injected at least one fault,
//   - the segment was written twice, at the first boot and by the first
//     restart, which refused the damaged segment (counted quarantined)
//     and rewrote it from the recipe byte for byte; the other restarts
//     served it as they found it,
//   - exactly the injected torn tail was truncated, by the second
//     restart, and
//   - the first restart served a resume from the recovered journal, and
//     the restart without a journal served none, so the client fell back
//     to at least one full re-plan.
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
			Name: crashScene, Source: soak.d.Store, Levels: soakLevels, Shards: spec.Shards, Stats: stServer,
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
	// Every later incarnation recovers from dir on the same address; the
	// recipe rewrites a segment a restart refuses.
	bcfg.Addr = b.Addr()
	written, err := os.ReadFile(cluster.SegmentPath(dir, crashScene))
	if err != nil {
		return err
	}

	// Crash-free, fault-free oracle against the first incarnation. Its
	// Bye reaches the server asynchronously, and a kill counts the
	// scene's live sessions, so the faulty ride waits until it is gone.
	oracle, err := rideOracle(b.Addr(), crashScene, soak)
	if err != nil {
		return err
	}
	if !waitUntil(2*time.Second, func() bool { return b.Server().SceneConns(crashScene) == 0 }) {
		return fmt.Errorf("experiment: the oracle's connection outlived its Bye")
	}

	// Kill schedule: distinct frames drawn in the middle of the tour,
	// leaving room after the last kill so resumption is exercised.
	lo, hi := spec.Steps/6, spec.Steps-2
	if hi-lo < crashKills {
		return fmt.Errorf("experiment: %d kills do not fit a %d-step tour", crashKills, spec.Steps)
	}
	killRng := rand.New(rand.NewSource(spec.Seed + 3))
	killSet := make(map[int]bool, crashKills)
	for len(killSet) < crashKills {
		killSet[lo+killRng.Intn(hi-lo)] = true
	}

	// Crashy run through the fault model.
	cfg := faultnet.Config{
		Seed:         spec.Seed + 1,
		DropAfterMin: spec.DropMeanBytes / 2, DropAfterMax: 3 * spec.DropMeanBytes / 2,
		CorruptAfterMin: spec.CorruptBytes / 2, CorruptAfterMax: 3 * spec.CorruptBytes / 2,
	}
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

	mark := func() crashMark {
		return crashMark{stServer.Load(stats.ProtoResumesRestored), stServer.Load(stats.EngineTailsTruncated),
			stServer.Load(stats.EngineRecordsQuarantined), rc.Replans}
	}
	var marks []crashMark // one per kill, then the tour's end
	killFrames := make([]int, 0, crashKills)
	start := time.Now()
	for i := range soak.tour.Pos {
		if killSet[i] {
			ord := len(marks)
			marks = append(marks, mark())
			killFrames = append(killFrames, i)
			if b, err = killRestart(b, bcfg, ord); err != nil {
				return fmt.Errorf("kill %d (frame %d): %w", ord, i, err)
			}
		}
		if err := soak.frame(rc, i); err != nil {
			return fmt.Errorf("frame %d did not survive crash-restart: %w", i, err)
		}
	}
	elapsed := time.Since(start)
	rc.Close()
	b.Stop()
	b = nil
	marks = append(marks, mark())
	// after[k] is what the incarnation booted by kill k did.
	after := make([]crashMark, crashKills)
	for k := range after {
		after[k] = marks[k+1].sub(marks[k])
	}

	c := rc.Client()
	div := diverged(oracle, c)
	ss, cs := stServer.Snapshot(), stClient.Snapshot()
	restored := ss.Get(stats.ProtoResumesRestored)
	faults := cs.Get(stats.LinkFaults)
	fmt.Fprintf(w, "crash-restart: %d objects, %d-step tram tour, %d kills at frames %v (damaged segment, torn park, lost journal), drop ~[%d,%d] B, corrupt ~[%d,%d] B\n",
		spec.Objects, spec.Steps, crashKills, killFrames, cfg.DropAfterMin, cfg.DropAfterMax, cfg.CorruptAfterMin, cfg.CorruptAfterMax)
	fmt.Fprintf(w, "  frames %d in %v · %d coefficients · %d connections · retries %d (%d timeouts) · restarts %d\n",
		soak.tour.Len(), elapsed.Round(time.Millisecond), c.Coefficients, dialer.Dials(),
		cs.Get(stats.ClientRetries), cs.Get(stats.ClientTimeouts), len(killFrames))
	fmt.Fprintf(w, "  durability: checkpoints %d (%d B) · replayed %d · tails truncated %d · quarantined %d · compactions %d\n",
		ss.Get(stats.EngineCheckpoints), ss.Get(stats.EngineCheckpointBytes), ss.Get(stats.EngineRecordsReplayed),
		ss.Get(stats.EngineTailsTruncated), ss.Get(stats.EngineRecordsQuarantined), ss.Get(stats.EngineJournalCompactions))
	fmt.Fprintf(w, "  recovery: resumes %d · re-plans %d · restored-journal resumes %d · faults %d · split frames %d (%d pieces)\n",
		rc.Resumes, rc.Replans, restored, faults, cs.Get(stats.ClientSplitFrames), cs.Get(stats.ClientPieces))
	fmt.Fprintf(w, "  per restart: restored resumes %d/%d/%d · tails truncated %d/%d/%d · quarantined %d/%d/%d · re-plans %d/%d/%d\n",
		after[0].restored, after[1].restored, after[2].restored,
		after[0].tails, after[1].tails, after[2].tails,
		after[0].quarantined, after[1].quarantined, after[2].quarantined,
		after[0].replans, after[1].replans, after[2].replans)

	if div > 0 {
		fmt.Fprintf(w, "  convergence FAILED: %d/%d objects diverged from the crash-free oracle\n",
			div, len(oracle.Objects()))
		return fmt.Errorf("experiment: %d objects diverged across crash-restarts", div)
	}
	fmt.Fprintf(w, "  convergence OK: all %d objects byte-identical to the crash-free oracle\n",
		len(oracle.Objects()))

	if faults == 0 {
		return fmt.Errorf("experiment: fault injection was inactive")
	}
	final, err := os.ReadFile(cluster.SegmentPath(dir, crashScene))
	if err != nil {
		return err
	}
	if !bytes.Equal(final, written) {
		return fmt.Errorf("experiment: the segment on disk (%d B) is not the one the first boot wrote (%d B)", len(final), len(written))
	}
	if ss.Get(stats.EngineCheckpoints) != 2 || ss.Get(stats.EngineCheckpointBytes) != 2*int64(len(written)) {
		return fmt.Errorf("experiment: segment written %d times (%d B), want twice (%d B each): at the first boot and by the first restart",
			ss.Get(stats.EngineCheckpoints), ss.Get(stats.EngineCheckpointBytes), len(written))
	}
	for k, want := range []int64{killDamagedScene: 1, killTornPark: 0, killLostJournal: 0} {
		if after[k].quarantined != want {
			return fmt.Errorf("experiment: restart %d quarantined %d records or segments, want %d", k, after[k].quarantined, want)
		}
	}
	for k, want := range []int64{killDamagedScene: 0, killTornPark: 1, killLostJournal: 0} {
		if after[k].tails != want {
			return fmt.Errorf("experiment: restart %d truncated %d torn tails, want the %d injected", k, after[k].tails, want)
		}
	}
	if after[killDamagedScene].restored < 1 {
		return fmt.Errorf("experiment: no resume was served from the recovered journal")
	}
	if after[killLostJournal].restored != 0 {
		return fmt.Errorf("experiment: %d restored resumes after the journal was deleted", after[killLostJournal].restored)
	}
	if after[killLostJournal].replans < 1 {
		return fmt.Errorf("experiment: the lost journal forced no re-plan")
	}
	return nil
}
