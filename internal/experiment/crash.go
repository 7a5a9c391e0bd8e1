package experiment

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/faultnet"
	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/workload"
)

// crashScene is the scene name the crash harness serves; it must survive
// checkpoint save/load unchanged so restarted instances answer the same
// hello.
const crashScene = proto.DefaultSceneName

// CrashSpec configures the kill-restart experiment: a resilient client
// rides a motion tour over a degraded link (faultnet drops and
// corruption) while the server process is killed at seeded random frames
// and restarted from its durable state — scene checkpoints plus the
// session journal in DataDir. The zero value gets quick-scale defaults.
type CrashSpec struct {
	Seed    int64
	Objects int // dataset size (default 40)
	Levels  int // subdivision depth (default 3)
	Steps   int // tour length (default 120)
	Shards  int // index shard count per scene

	// Kills is the number of mid-tour server kills (default 3). The first
	// kill also injects a torn tail into the scene checkpoint, and the
	// second kill arms the journal failpoint so the dying server tears its
	// own park record mid-write — both recoveries are counter-verified.
	Kills int

	// ColdJournal deletes the session journal at every restart, modeling
	// an expired or lost journal: each resume misses and the client falls
	// back to a full re-plan, which must still converge byte-identically.
	ColdJournal bool

	DropMeanBytes int64 // mean traffic between connection drops (default 16 KB)
	CorruptBytes  int64 // mean read bytes between bit flips (default 12 KB)

	// DataDir is the durable state directory ("" = fresh temp dir,
	// removed afterwards).
	DataDir string
}

func (s CrashSpec) fill() CrashSpec {
	if s.Objects == 0 {
		s.Objects = 40
	}
	if s.Levels == 0 {
		s.Levels = 3
	}
	if s.Steps == 0 {
		s.Steps = 120
	}
	if s.Kills == 0 {
		s.Kills = 3
	}
	return s
}

// crashServer is one incarnation of the crash-prone server process:
// registry, session journal, checkpointer, wire server, listener. start
// boots it (from the dataset on first boot, from DataDir afterwards);
// crash kills it the way SIGKILL would — nothing reaches disk after the
// kill instant; stop shuts it down orderly with a final checkpoint.
type crashServer struct {
	spec CrashSpec
	dir  string
	st   *stats.Stats
	d    *workload.Dataset

	reg  *engine.Registry
	jr   *engine.SessionJournal
	ckpt *engine.Checkpointer
	srv  *proto.Server
	lis  net.Listener
	done chan struct{}
}

func (cs *crashServer) start(first bool) error {
	cs.reg = engine.NewRegistry()
	if first {
		if _, err := cs.reg.Build(engine.SceneConfig{
			Name:    crashScene,
			Dataset: cs.d,
			Levels:  cs.spec.Levels,
			Shards:  cs.spec.Shards,
			Stats:   cs.st,
		}); err != nil {
			return err
		}
		if err := cs.reg.SaveAll(cs.dir, cs.st); err != nil {
			return err
		}
	} else {
		n, err := cs.reg.LoadAll(cs.dir, cs.st)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("experiment: restart recovered no scenes from %s", cs.dir)
		}
	}
	journalPath := filepath.Join(cs.dir, engine.SessionJournalFile)
	if cs.spec.ColdJournal && !first {
		if err := os.Remove(journalPath); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	jr, err := engine.OpenSessionJournal(journalPath, 0, cs.st)
	if err != nil {
		return err
	}
	cs.jr = jr
	cs.reg.SetSessionJournal(jr)
	jr.Restore(cs.reg)
	cs.ckpt = cs.reg.StartCheckpointer(cs.dir, 100*time.Millisecond, cs.st, nil)
	cs.srv = proto.NewMultiServer(cs.reg, nil)
	cs.srv.SetStats(cs.st)
	cs.srv.SetDrainTimeout(time.Second)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	cs.lis = lis
	cs.done = make(chan struct{})
	go func(srv *proto.Server, done chan struct{}) {
		defer close(done)
		srv.Serve(lis)
	}(cs.srv, cs.done)
	return nil
}

func (cs *crashServer) addr() string { return cs.lis.Addr().String() }

// crash simulates the process dying: the journal and checkpointer are
// killed first, so the connection teardown that follows — handlers
// parking their sessions as the listener closes — never reaches disk,
// exactly as it would not for a SIGKILLed process.
func (cs *crashServer) crash() {
	cs.jr.Kill()
	cs.ckpt.Kill()
	cs.srv.Close()
	<-cs.done
	cs.jr.Close()
}

// stop shuts the incarnation down orderly: final checkpoint, drained
// connections, closed journal.
func (cs *crashServer) stop() {
	cs.ckpt.Stop()
	cs.srv.Close()
	<-cs.done
	cs.jr.Close()
}

// crashDialer dials the current server incarnation through the fault
// model. Unlike faultnet.Dialer its address is mutable — every restart
// rebinds the listener — and it remembers the newest connection so the
// harness can sever the link from the client side, forcing the server to
// park the session before the kill.
type crashDialer struct {
	cfg faultnet.Config
	st  *stats.Stats

	mu    sync.Mutex
	addr  string
	rng   *rand.Rand
	dials int
	last  *faultnet.Conn
}

func newCrashDialer(addr string, cfg faultnet.Config, st *stats.Stats) *crashDialer {
	return &crashDialer{cfg: cfg, st: st, addr: addr, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// SetAddr points subsequent dials at a restarted server.
func (d *crashDialer) SetAddr(addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addr = addr
}

// Dials returns how many connections the dialer has opened.
func (d *crashDialer) Dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials
}

// Dial opens one faulty connection to the current address, with per-conn
// fault offsets drawn deterministically in dial order.
func (d *crashDialer) Dial() (net.Conn, error) {
	d.mu.Lock()
	addr := d.addr
	d.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.dials++
	cfg := d.cfg
	cfg.Seed = d.rng.Int63()
	fc := faultnet.Wrap(conn, cfg, d.st)
	d.last = fc
	d.mu.Unlock()
	return fc, nil
}

// Sever closes the newest connection from the client side, so the server
// sees the peer vanish and parks the session — the disconnect that
// precedes each kill.
func (d *crashDialer) Sever() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.last != nil {
		d.last.Close()
	}
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

// killRestart performs one kill cycle: sever the client link, wait for
// the server to park the session durably (or, on the torn-park kill, for
// the armed failpoint to tear the journal mid-append), crash, optionally
// damage the durable state, and boot the next incarnation.
func (cs *crashServer) killRestart(d *crashDialer, ord int) error {
	parksBefore := cs.jr.Parks()
	tearJournal := ord == 1
	if tearJournal {
		// The park record the dying server writes for the severed session
		// tears four bytes in — mid-header — so recovery must truncate it
		// and this client's resume falls back to a re-plan.
		cs.jr.SetFailpoint(4)
	}
	d.Sever()
	if tearJournal {
		waitUntil(2*time.Second, cs.jr.Killed)
	} else {
		waitUntil(2*time.Second, func() bool { return cs.jr.Parks() > parksBefore })
	}
	// Grace for park bookkeeping racing the poll; the fsync already
	// happened by the time Parks() moves.
	time.Sleep(10 * time.Millisecond)
	cs.crash()
	if ord == 0 {
		if err := injectTornTail(engine.CheckpointPath(cs.dir, crashScene)); err != nil {
			return err
		}
	}
	if err := cs.start(false); err != nil {
		return err
	}
	d.SetAddr(cs.addr())
	return nil
}

// RunCrash runs the kill-restart experiment and prints a summary. A
// resilient client streams a motion tour through faultnet while the
// server is killed Kills times at seeded random frames and restarted
// from its checkpoints and session journal. The experiment fails (as an
// error) unless:
//
//   - the client's final reconstructions are byte-identical to a
//     crash-free, fault-free oracle run,
//   - recovery replayed checkpoint records and truncated the injected
//     torn tail without inventing data, and
//   - at least one resume was served from the recovered journal
//     (ColdJournal inverts this: the journal is deleted at each restart,
//     so no restored resumes may occur and the client must have fallen
//     back to at least one full re-plan).
func RunCrash(spec CrashSpec, w io.Writer) error {
	spec = spec.fill()

	dir := spec.DataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "crash-experiment-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	d := workload.Generate(workload.Spec{NumObjects: spec.Objects, Levels: spec.Levels, Seed: spec.Seed + 5})
	stServer := stats.New()
	cs := &crashServer{spec: spec, dir: dir, st: stServer, d: d}
	if err := cs.start(true); err != nil {
		return err
	}

	space := d.Store.Bounds().XY()
	tour := motion.NewTour(motion.Tram, motion.TourSpec{
		Space: space, Steps: spec.Steps, Speed: 0.25,
	}, rand.New(rand.NewSource(spec.Seed)))
	side := d.QuerySide(0.10)

	// Crash-free, fault-free oracle against the first incarnation.
	oracle, err := proto.Dial(cs.addr(), nil)
	if err != nil {
		return err
	}
	for i, pos := range tour.Pos {
		if _, err := oracle.Frame(geom.RectAround(pos, side), tour.SpeedAt(i)); err != nil {
			return fmt.Errorf("oracle frame %d: %w", i, err)
		}
	}
	oracle.Close()
	if len(oracle.Objects()) == 0 {
		// A tour that touches no objects would make every later check
		// vacuous; refuse rather than "pass" on an empty comparison.
		return fmt.Errorf("experiment: oracle retrieved no objects; enlarge the tour or dataset")
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
	cfg := faultLink(faultnet.Config{Seed: spec.Seed + 1}, spec.DropMeanBytes, spec.CorruptBytes)
	stClient := stats.New()
	dialer := newCrashDialer(cs.addr(), cfg, stClient)
	rc, err := proto.DialResilient(proto.ResilientConfig{
		Dial:         dialer.Dial,
		FrameTimeout: 10 * time.Second,
		MaxAttempts:  12,
		BackoffBase:  time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		Seed:         spec.Seed + 2,
		Stats:        stClient,
	})
	if err != nil {
		return err
	}
	defer rc.Close()

	start := time.Now()
	restarts := 0
	for i, pos := range tour.Pos {
		if ord, ok := killOrd[i]; ok {
			if err := cs.killRestart(dialer, ord); err != nil {
				return fmt.Errorf("kill %d (frame %d): %w", ord, i, err)
			}
			restarts++
		}
		if _, err := rc.Frame(geom.RectAround(pos, side), tour.SpeedAt(i)); err != nil {
			return fmt.Errorf("frame %d did not survive crash-restart: %w", i, err)
		}
	}
	elapsed := time.Since(start)
	rc.Close()
	cs.stop()

	// Convergence check against the oracle.
	c := rc.Client()
	diverged := 0
	for _, id := range oracle.Objects() {
		om, _ := oracle.Mesh(id)
		gm, ok := c.Mesh(id)
		if !ok || c.CoeffCount(id) != oracle.CoeffCount(id) || om.NumVerts() != gm.NumVerts() {
			diverged++
			continue
		}
		for i := range om.Verts {
			if om.Verts[i] != gm.Verts[i] {
				diverged++
				break
			}
		}
	}

	ss, cstats := stServer.Snapshot(), stClient.Snapshot()
	mode := "warm journal"
	if spec.ColdJournal {
		mode = "cold journal"
	}
	fmt.Fprintf(w, "crash-restart: %d objects, %d-step tram tour, %d kills (%s), drop ~[%d,%d] B\n",
		spec.Objects, spec.Steps, spec.Kills, mode, cfg.DropAfterMin, cfg.DropAfterMax)
	fmt.Fprintf(w, "  frames %d in %v · %d coefficients · %d connections · restarts %d\n",
		tour.Len(), elapsed.Round(time.Millisecond), c.Coefficients, dialer.Dials(), restarts)
	fmt.Fprintf(w, "  durability: checkpoints %d (%d B) · replayed %d · tails truncated %d · quarantined %d · compactions %d\n",
		ss.Checkpoints, ss.CheckpointBytes, ss.RecordsReplayed, ss.TailsTruncated, ss.RecordsQuarantined, ss.JournalCompactions)
	fmt.Fprintf(w, "  recovery: resumes %d · re-plans %d · restored-journal resumes %d · faults %d\n",
		rc.Resumes, rc.Replans, ss.ResumesRestored, cstats.Faults)

	if diverged > 0 {
		fmt.Fprintf(w, "  convergence FAILED: %d/%d objects diverged from the crash-free oracle\n",
			diverged, len(oracle.Objects()))
		return fmt.Errorf("experiment: %d objects diverged across crash-restarts", diverged)
	}
	fmt.Fprintf(w, "  convergence OK: all %d objects byte-identical to the crash-free oracle\n",
		len(oracle.Objects()))

	if restarts != spec.Kills {
		return fmt.Errorf("experiment: %d restarts, expected %d", restarts, spec.Kills)
	}
	if ss.Checkpoints < 1 || ss.RecordsReplayed < 1 {
		return fmt.Errorf("experiment: recovery never replayed a checkpoint (checkpoints %d, replayed %d)",
			ss.Checkpoints, ss.RecordsReplayed)
	}
	if ss.TailsTruncated < 1 {
		return fmt.Errorf("experiment: injected torn tail was never truncated")
	}
	if cstats.Faults == 0 {
		return fmt.Errorf("experiment: fault injection was inactive")
	}
	if spec.ColdJournal {
		if ss.ResumesRestored != 0 {
			return fmt.Errorf("experiment: %d restored resumes despite cold journal", ss.ResumesRestored)
		}
		if rc.Replans < 1 {
			return fmt.Errorf("experiment: cold journal forced no re-plan")
		}
	} else if ss.ResumesRestored < 1 {
		return fmt.Errorf("experiment: no resume was served from the recovered journal")
	}
	return nil
}
