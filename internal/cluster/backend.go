package cluster

import (
	"cmp"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/proto"
	"repro/internal/stats"
)

// BackendConfig describes one backend: a full serving stack (registry,
// scene segments, session journal, wire server). cmd/server boots
// exactly this stack from its flags; the soaks and the cluster harness
// boot, kill and drain it in process. Every zero value keeps a default.
type BackendConfig struct {
	// Addr is the listen address (default "127.0.0.1:0"). Tests that
	// need a backend at a topology-pinned address pre-reserve one.
	Addr string
	// Scenes is the recipe: the scenes a fresh boot serves. With a
	// DataDir it runs only when the directory holds no scene segment, or
	// to rewrite a segment the boot refused; each scene it gives is
	// written to its segment once and served from there. Scenes(...)
	// wraps fixed configs.
	Scenes func() ([]engine.SceneConfig, error)
	// DataDir holds the durable state: one segment per scene,
	// scene-<name>.seg, written by index.BuildSceneSegment, and the
	// session journal. "" runs the backend memory-only: it serves the
	// recipe's sources as they are (no failover continuity, no drains
	// out).
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
	HotCache       bool          // a sharing table per scene (hot results and searches in flight)
	PageCacheBytes int64         // > 0 serves every segment paged with this page cache (needs DataDir); 0 reads each into memory
	VerifyPages    bool          // CRC-check a paged scene's pages before building it
	ScrubInterval  time.Duration // re-verify each paged scene's pages this often (0 = never)
}

// Scenes returns the recipe that serves the given scene configs.
func Scenes(scs ...engine.SceneConfig) func() ([]engine.SceneConfig, error) {
	return func() ([]engine.SceneConfig, error) { return scs, nil }
}

// SegmentPath returns the segment file of a scene in a data directory:
// scene-<name>.seg, with <name> path-safe by engine.ValidateSceneName.
func SegmentPath(dir, scene string) string {
	return filepath.Join(dir, "scene-"+scene+".seg")
}

// Backend is one running backend.
type Backend struct {
	cfg  BackendConfig
	reg  *engine.Registry
	jr   *engine.SessionJournal
	srv  *proto.Server
	lis  net.Listener
	done chan struct{}

	mu sync.Mutex
	// paged holds the scenes served from a paged store the backend
	// opened, which it scrubs and closes.
	paged map[string]pagedScene
	// next is the registry order the next adopted scene's segment
	// records: after every scene the backend serves.
	next int
}

// pagedScene is a paged store the backend opened and its scrubber's
// stop.
type pagedScene struct {
	ps    *index.PagedStore
	scrub func()
}

func (p pagedScene) close() {
	p.scrub()
	p.ps.Close()
}

// StartBackend boots a backend. With a DataDir every scene is served
// from its segment there, the recipe writing the segments a fresh
// directory lacks; the session journal is replayed so sessions parked
// by a prior incarnation resume here. Memory-only, the recipe's scenes
// are served as they are.
func StartBackend(cfg BackendConfig) (*Backend, error) {
	cfg.Stats = cmp.Or(cfg.Stats, stats.New())
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.PageCacheBytes > 0 && cfg.DataDir == "" {
		return nil, fmt.Errorf("cluster: paged serving needs a data directory to hold the segments")
	}
	b := &Backend{cfg: cfg, reg: engine.NewRegistry(), paged: make(map[string]pagedScene)}
	if err := b.loadScenes(); err != nil {
		b.closeStores()
		return nil, err
	}
	if cfg.HotCache {
		b.reg.EnableHotCache(hotcache.Config{}, b.cfg.Stats)
		b.cfg.Logf("hot-region result cache enabled for %d scene(s)", b.reg.Len())
	}
	b.reg.SetResumeCache(cmp.Or(cfg.ResumeCapacity, engine.DefaultResumeCapacity),
		cmp.Or(cfg.ResumeTTL, engine.DefaultResumeTTL))
	if cfg.DataDir != "" {
		jr, err := engine.OpenSessionJournal(filepath.Join(cfg.DataDir, engine.SessionJournalFile), 0, b.cfg.Stats)
		if err != nil {
			b.closeStores()
			return nil, err
		}
		b.jr = jr
		b.reg.SetSessionJournal(jr)
		if n := jr.Restore(b.reg); n > 0 {
			b.cfg.Logf("restored %d resumable session(s) from the journal", n)
		}
		b.cfg.Logf("durable state in %s", cfg.DataDir)
	}
	switch {
	case cfg.ScrubInterval <= 0:
	case len(b.paged) == 0:
		b.cfg.Logf("scrub-interval: WARNING: no paged store to scrub (use -store=paged); ignoring")
	default:
		b.cfg.Logf("background page scrub every %v", cfg.ScrubInterval)
	}
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

// loadScenes registers the backend's scenes. Memory-only, they are the
// recipe's. With a DataDir, every segment there is opened; a segment
// that does not open (or, read into memory, has a page that does not
// read clean) is refused and counted in engine.records_quarantined. The
// recipe runs when the directory holds no segment, writing every
// scene's, or when one was refused, rewriting the refused scenes'. The
// scenes are registered in the order their segments record.
func (b *Backend) loadScenes() error {
	dir := b.cfg.DataDir
	if dir == "" {
		scenes, err := b.recipe()
		if err != nil {
			return err
		}
		for _, sc := range scenes {
			sc.Stats = cmp.Or(sc.Stats, b.cfg.Stats)
			if err := b.serve(sc); err != nil {
				return err
			}
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	paths, err := filepath.Glob(SegmentPath(dir, "*"))
	if err != nil {
		return err
	}
	var segs []segment
	refused := make(map[string]bool)
	for _, path := range paths {
		sg, err := b.open(path)
		if err != nil {
			b.cfg.Stats.Add(stats.EngineRecordsQuarantined, 1)
			b.cfg.Logf("refusing scene segment %s: %v", path, err)
			refused[sg.cfg.Name] = true
			continue
		}
		segs = append(segs, sg)
	}
	if len(segs) > 0 && len(refused) == 0 {
		b.cfg.Logf("restored %d scene(s) from %s", len(segs), dir)
	} else {
		scenes, err := b.recipe()
		if err != nil {
			return err
		}
		for order, sc := range scenes {
			if len(paths) > 0 && !refused[sc.Name] {
				continue
			}
			sg, err := b.write(sc, order)
			if err != nil {
				return err
			}
			segs = append(segs, sg)
		}
	}
	slices.SortFunc(segs, func(x, y segment) int {
		return cmp.Or(cmp.Compare(x.order, y.order), cmp.Compare(x.cfg.Name, y.cfg.Name))
	})
	for _, sg := range segs {
		b.next = max(b.next, sg.order+1)
		if err := b.serve(sg.cfg); err != nil {
			return err
		}
	}
	return nil
}

// recipe runs the recipe (none gives no scenes).
func (b *Backend) recipe() ([]engine.SceneConfig, error) {
	if b.cfg.Scenes == nil {
		return nil, nil
	}
	return b.cfg.Scenes()
}

// segment is a scene segment opened for serving: the scene it holds
// and its registry order.
type segment struct {
	cfg   engine.SceneConfig
	order int
}

// open opens the scene segment at path, as boot and adoption both do:
// paged with the configured page cache, which the backend then owns, or
// read into a resident store. The scene is named by the file name.
func (b *Backend) open(path string) (segment, error) {
	name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "scene-"), ".seg")
	sg := segment{cfg: engine.SceneConfig{Name: name, Stats: b.cfg.Stats}}
	if err := engine.ValidateSceneName(name); err != nil {
		return sg, err
	}
	ps, err := index.OpenPaged(path, index.PagedConfig{CacheBytes: b.cfg.PageCacheBytes})
	if err != nil {
		return sg, err
	}
	sc := ps.Scene()
	sg.cfg.Source, sg.cfg.Levels, sg.cfg.Shards, sg.order = ps, sc.Levels, sc.Shards, sc.Order
	if b.cfg.PageCacheBytes > 0 {
		b.mu.Lock()
		b.paged[name] = pagedScene{ps, func() {}}
		b.mu.Unlock()
		return sg, nil
	}
	sg.cfg.Source, err = ps.Load()
	ps.Close()
	return sg, err
}

// write builds a recipe scene's segment in DataDir, recording order as
// its registry order, and opens it.
func (b *Backend) write(sc engine.SceneConfig, order int) (segment, error) {
	if err := engine.ValidateSceneName(sc.Name); err != nil {
		return segment{}, err
	}
	if sc.Source == nil {
		return segment{}, fmt.Errorf("scene %q has no source", sc.Name)
	}
	path := SegmentPath(b.cfg.DataDir, sc.Name)
	seg := index.SegmentScene{Levels: sc.Levels, Shards: sc.Shards, Order: order}
	if err := index.BuildSceneSegment(path, sc.Source, seg, 0); err != nil {
		return segment{}, fmt.Errorf("scene %q: %w", sc.Name, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return segment{}, err
	}
	b.cfg.Stats.Add(stats.EngineCheckpoints, 1)
	b.cfg.Stats.Add(stats.EngineCheckpointBytes, fi.Size())
	b.cfg.Logf("wrote scene %q to %s (%d B)", sc.Name, path, fi.Size())
	return b.open(path)
}

// serve builds and registers one scene. A paged store the backend
// opened for it has its pages checked first under VerifyPages and is
// scrubbed every ScrubInterval.
func (b *Backend) serve(sc engine.SceneConfig) error {
	b.mu.Lock()
	p, paged := b.paged[sc.Name]
	b.mu.Unlock()
	if paged && b.cfg.VerifyPages {
		if err := b.verifyPages(sc.Name, p.ps); err != nil {
			return err
		}
	}
	s, err := b.reg.Build(sc)
	if err != nil {
		return fmt.Errorf("scene %q: %w", sc.Name, err)
	}
	where := ""
	if paged {
		p.scrub = engine.StartScrubber(p.ps, b.cfg.ScrubInterval, b.cfg.Stats, b.cfg.Logf)
		b.mu.Lock()
		b.paged[sc.Name] = p
		b.mu.Unlock()
		where = fmt.Sprintf(", paged (%d B payload, %d B cache)",
			p.ps.NumCoeffs()*index.CoeffRecordSize, p.ps.PagerStats().CacheBytes)
	}
	b.cfg.Logf("scene %q: %s over %d coefficients%s", s.Name, s.Index.Name(), s.Source.NumCoeffs(), where)
	return nil
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

// closeScene halts a paged scene's scrubber and closes its store; a
// resident scene has neither.
func (b *Backend) closeScene(scene string) {
	b.mu.Lock()
	p, ok := b.paged[scene]
	delete(b.paged, scene)
	b.mu.Unlock()
	if ok {
		p.close()
	}
}

// closeStores closes every paged store the backend opened.
func (b *Backend) closeStores() {
	b.mu.Lock()
	paged := b.paged
	b.paged = make(map[string]pagedScene)
	b.mu.Unlock()
	for _, p := range paged {
		p.close()
	}
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
// scrubbers, closed paged stores and journal.
func (b *Backend) Stop() {
	if b.srv != nil {
		b.srv.Close()
	}
	if b.done != nil {
		<-b.done
	}
	b.closeStores()
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
// the scene's segment in the backend's DataDir and the parked lineages
// encoded in park format. A memory-only backend has no segment to ship.
func (b *Backend) ExportScene(scene string) (segPath string, sessions [][]byte, err error) {
	if b.cfg.DataDir == "" {
		return "", nil, fmt.Errorf("cluster: backend %s is memory-only, cannot export", b.Addr())
	}
	path := SegmentPath(b.cfg.DataDir, scene)
	if _, err := os.Stat(path); err != nil {
		return "", nil, fmt.Errorf("cluster: scene %q has no segment to ship: %w", scene, err)
	}
	sessions, err = b.reg.ExportSessions(scene)
	if err != nil {
		return "", nil, err
	}
	return path, sessions, nil
}

// AdoptScene takes ownership of a shipped scene: its segment is copied
// into this backend's DataDir page by page, every page CRC-checked, with
// the scene placed after every scene the backend serves; the copy is
// opened as a boot opens one, and the shipped sessions are re-parked
// and journaled locally. A memory-only backend reads the shipped
// segment into memory. Returns the number of sessions adopted.
func (b *Backend) AdoptScene(scene, srcSeg string, sessions [][]byte) (int, error) {
	if err := engine.ValidateSceneName(scene); err != nil {
		return 0, err
	}
	if _, dup := b.reg.Get(scene); dup {
		return 0, fmt.Errorf("cluster: backend %s already serves scene %q", b.Addr(), scene)
	}
	path := srcSeg
	b.mu.Lock()
	order := b.next
	b.next++
	b.mu.Unlock()
	if b.cfg.DataDir != "" {
		path = SegmentPath(b.cfg.DataDir, scene)
		if err := index.CopySegment(srcSeg, path, order); err != nil {
			return 0, err
		}
	}
	sg, err := b.open(path)
	if err == nil {
		sg.cfg.Name = scene
		err = b.serve(sg.cfg)
	}
	if err != nil {
		b.closeScene(scene)
		if path != srcSeg {
			os.Remove(path)
		}
		return 0, err
	}
	return b.reg.ImportSessions(scene, sessions)
}

// DropScene retires the source copy of a drained scene: the scene is
// unregistered, its parked sessions tombstoned in the journal, its
// paged store (if any) closed, and its segment removed so a restart
// cannot resurrect a stale copy.
func (b *Backend) DropScene(scene string) error {
	if _, err := b.reg.RemoveScene(scene); err != nil {
		return err
	}
	b.closeScene(scene)
	if b.cfg.DataDir != "" {
		if err := os.Remove(SegmentPath(b.cfg.DataDir, scene)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}
