package cluster

import (
	"cmp"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/proto"
	"repro/internal/retrieval"
	"repro/internal/stats"
)

// BackendConfig describes one backend: a full serving stack (registry,
// scene files, session journal, wire server). cmd/server boots exactly
// this stack from its flags; the soaks and the cluster harness boot,
// kill and drain it in process. Every zero value keeps a default.
type BackendConfig struct {
	// Addr is the listen address (default "127.0.0.1:0"). Tests that
	// need a backend at a topology-pinned address pre-reserve one.
	Addr string
	// Scenes is the recipe of a fresh boot: it runs only when DataDir
	// holds no scene files, and its scenes are built, written to DataDir
	// once, and served. Scenes(...) wraps fixed configs.
	Scenes func() ([]engine.SceneConfig, error)
	// DataDir holds the durable state: the per-scene files written when
	// the scenes are built, and the session journal. "" runs the backend
	// memory-only (no failover continuity, no drains in or out).
	DataDir string
	// Stats receives the backend's counters (nil → a fresh collector).
	Stats *stats.Stats
	// Logf receives diagnostics (nil discards).
	Logf func(format string, args ...any)

	// The serving settings, each set by a cmd/server flag (-max-sessions
	// to -scrub-interval).
	MaxSessions    int           // sessions served at once before shedding (0 = unlimited)
	IdleTimeout    time.Duration // longest silence between frames (0 = none)
	FrameTimeout   time.Duration // per-frame read and write deadline (0 = none)
	DrainTimeout   time.Duration // Stop's drain bound (0 = 1 s, < 0 = none)
	ResumeCapacity int           // parked sessions per scene (0 = engine's default, < 0 disables resumption)
	ResumeTTL      time.Duration // how long a session stays parked (0 = engine's default, < 0 = not at all)
	BudgetCap      int64         // ceiling on every frame's bytes (0 = none)
	HotCache       bool          // a hot-region result cache per scene
	Coalesce       bool          // a query coalescer per scene
	VerifyPages    bool          // CRC-check a paged scene's pages before building it
	ScrubInterval  time.Duration // re-verify each paged scene's pages this often (0 = never)
}

// Scenes returns the recipe that serves the given scene configs.
func Scenes(scs ...engine.SceneConfig) func() ([]engine.SceneConfig, error) {
	return func() ([]engine.SceneConfig, error) { return scs, nil }
}

// Backend is one running backend.
type Backend struct {
	cfg       BackendConfig
	reg       *engine.Registry
	paged     []*index.PagedStore // the recipe's out-of-core sources
	jr        *engine.SessionJournal
	srv       *proto.Server
	lis       net.Listener
	done      chan struct{}
	stopScrub []func()
}

// StartBackend boots a backend: recovered from DataDir when it holds
// scene files, built fresh from cfg.Scenes otherwise (writing the scene
// files once, so a restart or a replica can cold-start from the
// directory). The session journal, when DataDir is set, is replayed so
// sessions parked by a prior incarnation resume here.
func StartBackend(cfg BackendConfig) (*Backend, error) {
	cfg.Stats = cmp.Or(cfg.Stats, stats.New())
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	b := &Backend{cfg: cfg, reg: engine.NewRegistry()}
	if err := b.loadScenes(); err != nil {
		return nil, err
	}
	if cfg.HotCache {
		b.reg.EnableHotCache(hotcache.Config{}, b.cfg.Stats)
		b.cfg.Logf("hot-region result cache enabled for %d scene(s)", b.reg.Len())
	}
	if cfg.Coalesce {
		b.reg.EnableCoalescer(retrieval.CoalescerConfig{}, b.cfg.Stats)
		b.cfg.Logf("query coalescing enabled for %d scene(s)", b.reg.Len())
	}
	b.reg.SetResumeCache(cmp.Or(cfg.ResumeCapacity, engine.DefaultResumeCapacity),
		cmp.Or(cfg.ResumeTTL, engine.DefaultResumeTTL))
	if cfg.DataDir != "" {
		jr, err := engine.OpenSessionJournal(filepath.Join(cfg.DataDir, engine.SessionJournalFile), 0, b.cfg.Stats)
		if err != nil {
			return nil, err
		}
		b.jr = jr
		b.reg.SetSessionJournal(jr)
		if n := jr.Restore(b.reg); n > 0 {
			b.cfg.Logf("restored %d resumable session(s) from the journal", n)
		}
		b.cfg.Logf("durable state in %s", cfg.DataDir)
	}
	b.startScrubbers()
	b.srv = proto.NewMultiServer(b.reg, b.cfg.Logf)
	b.srv.SetStats(b.cfg.Stats)
	b.srv.SetLimits(cfg.MaxSessions, cfg.IdleTimeout, cfg.FrameTimeout)
	b.srv.SetDrainTimeout(max(cmp.Or(cfg.DrainTimeout, time.Second), 0))
	b.srv.SetBudgetCap(cfg.BudgetCap)
	lis, err := net.Listen("tcp", cmp.Or(cfg.Addr, "127.0.0.1:0"))
	if err != nil {
		b.Kill()
		return nil, err
	}
	b.lis = lis
	b.done = make(chan struct{})
	go func() {
		defer close(b.done)
		b.srv.Serve(lis)
	}()
	b.cfg.Logf("serving %d scene(s) %v on %s", b.reg.Len(), b.reg.Names(), b.Addr())
	return b, nil
}

// loadScenes registers the scenes of the scene files in DataDir or,
// when it holds none, the recipe's, and writes their scene files.
func (b *Backend) loadScenes() error {
	if dir := b.cfg.DataDir; dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		n, err := b.reg.LoadAll(dir, b.cfg.Stats)
		if err != nil {
			return err
		}
		if n > 0 {
			b.cfg.Logf("restored %d scene(s) from %s", n, dir)
			return nil
		}
	}
	if b.cfg.Scenes == nil {
		return nil
	}
	scenes, err := b.cfg.Scenes()
	if err != nil {
		return err
	}
	for _, sc := range scenes {
		ps, paged := sc.Source.(*index.PagedStore)
		if paged && b.cfg.VerifyPages {
			if err := b.verifyPages(sc.Name, ps); err != nil {
				return err
			}
		}
		sc.Stats = cmp.Or(sc.Stats, b.cfg.Stats)
		s, err := b.reg.Build(sc)
		if err != nil {
			return fmt.Errorf("scene %q: %w", sc.Name, err)
		}
		where := ""
		if paged {
			b.paged = append(b.paged, ps)
			where = fmt.Sprintf(", paged (%d B payload, %d B cache)",
				ps.NumCoeffs()*index.CoeffRecordSize, ps.PagerStats().CacheBytes)
		}
		b.cfg.Logf("scene %q: %s over %d coefficients%s", s.Name, s.Index.Name(), s.Source.NumCoeffs(), where)
	}
	if b.cfg.DataDir == "" || len(scenes) == 0 {
		return nil
	}
	return b.reg.SaveAll(b.cfg.DataDir, b.cfg.Stats)
}

// verifyPages is the boot check: every page of a paged scene is read and
// CRC-checked before the scene is built. Corrupt pages are quarantined,
// their coefficients withheld until a later scrub sees them read clean;
// the backend still boots and serves the rest.
func (b *Backend) verifyPages(scene string, ps *index.PagedStore) error {
	pages := ps.Segment().NumPages()
	b.cfg.Logf("verifying %d pages of scene %q...", pages, scene)
	bad, err := ps.VerifyPages()
	switch {
	case err != nil:
		return fmt.Errorf("verify-pages: %w", err)
	case len(bad) > 0:
		b.cfg.Logf("verify-pages: WARNING: %d corrupt page(s) quarantined: %v — their coefficients will be withheld until the segment is repaired", len(bad), bad)
	default:
		b.cfg.Logf("verify-pages: all %d pages clean", pages)
	}
	return nil
}

// startScrubbers re-verifies each paged scene every ScrubInterval until
// Stop.
func (b *Backend) startScrubbers() {
	if b.cfg.ScrubInterval <= 0 {
		return
	}
	if len(b.paged) == 0 {
		b.cfg.Logf("scrub-interval: WARNING: no paged store to scrub (use -store=paged); ignoring")
		return
	}
	for _, ps := range b.paged {
		b.stopScrub = append(b.stopScrub, engine.StartScrubber(ps, b.cfg.ScrubInterval, b.cfg.Stats, b.cfg.Logf))
	}
	b.cfg.Logf("background page scrub every %v", b.cfg.ScrubInterval)
}

// Addr returns the backend's serving address.
func (b *Backend) Addr() string { return b.lis.Addr().String() }

// Registry exposes the backend's scene registry (drain hooks).
func (b *Backend) Registry() *engine.Registry { return b.reg }

// Server exposes the wire server (SeverScene/SceneConns).
func (b *Backend) Server() *proto.Server { return b.srv }

// Journal exposes the session journal (nil when memory-only).
func (b *Backend) Journal() *engine.SessionJournal { return b.jr }

// Stats exposes the backend's counters.
func (b *Backend) Stats() *stats.Stats { return b.cfg.Stats }

// Stop shuts the backend down orderly: drained connections, halted
// scrubbers, closed journal.
func (b *Backend) Stop() {
	if b.srv != nil {
		b.srv.Close()
	}
	if b.done != nil {
		<-b.done
	}
	for _, stop := range b.stopScrub {
		stop()
	}
	b.jr.Close()
}

// Kill simulates the process dying: nothing reaches disk after the kill
// instant — the journal dies first, then the listener and every
// connection are torn down.
func (b *Backend) Kill() {
	b.jr.Kill()
	b.Stop()
}

// ExportScene readies one scene plus its parked sessions for shipping:
// the scene file already in the backend's DataDir, written when the
// scene was built, and the parked lineages encoded in park format.
// A scene with no file there (one built from a bare source) cannot be
// shipped.
func (b *Backend) ExportScene(scene string) (ckptPath string, sessions [][]byte, err error) {
	if b.cfg.DataDir == "" {
		return "", nil, fmt.Errorf("cluster: backend %s is memory-only, cannot export", b.Addr())
	}
	path := engine.CheckpointPath(b.cfg.DataDir, scene)
	if _, err := os.Stat(path); err != nil {
		return "", nil, fmt.Errorf("cluster: scene %q has no scene file to ship: %w", scene, err)
	}
	sessions, err = b.reg.ExportSessions(scene)
	if err != nil {
		return "", nil, err
	}
	return path, sessions, nil
}

// AdoptScene takes ownership of a shipped scene: the scene file is
// copied (CRC-verified) into this backend's DataDir, loaded, and the
// shipped sessions re-parked and journaled locally. Returns the number
// of sessions adopted.
func (b *Backend) AdoptScene(scene, srcCkpt string, sessions [][]byte) (int, error) {
	path := srcCkpt
	if b.cfg.DataDir != "" {
		dst := engine.CheckpointPath(b.cfg.DataDir, scene)
		if _, err := persist.CopyVerified(srcCkpt, dst); err != nil {
			return 0, err
		}
		path = dst
	}
	if _, err := b.reg.LoadScene(path, b.cfg.Stats); err != nil {
		return 0, err
	}
	return b.reg.ImportSessions(scene, sessions)
}

// DropScene retires the source copy of a drained scene: the scene is
// unregistered, its parked sessions tombstoned in the journal, and its
// scene file removed so a restart cannot resurrect a stale copy.
func (b *Backend) DropScene(scene string) error {
	if _, err := b.reg.RemoveScene(scene); err != nil {
		return err
	}
	if b.cfg.DataDir != "" {
		if err := os.Remove(engine.CheckpointPath(b.cfg.DataDir, scene)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}
