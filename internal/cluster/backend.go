package cluster

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/proto"
	"repro/internal/stats"
)

// BackendConfig describes one in-process backend: a full serving stack
// (registry, scene files, session journal, wire server) the cluster
// harnesses boot, kill, and drain. cmd/server is the same stack as a
// standalone process.
type BackendConfig struct {
	// Addr is the listen address (default "127.0.0.1:0"). Tests that
	// need a backend at a topology-pinned address pre-reserve one.
	Addr string
	// Scenes are built fresh when DataDir holds no scene files; ignored
	// when a prior incarnation's state is recovered.
	Scenes []engine.SceneConfig
	// DataDir holds the durable state: the per-scene files written when
	// the scenes are built, and the session journal. "" runs the backend
	// memory-only (no failover continuity, no drains in or out).
	DataDir string
	// Stats receives the backend's counters (nil → a fresh collector).
	Stats *stats.Stats
	// Logf receives diagnostics (nil discards).
	Logf func(format string, args ...any)
}

// Backend is one running in-process backend.
type Backend struct {
	cfg  BackendConfig
	st   *stats.Stats
	reg  *engine.Registry
	jr   *engine.SessionJournal
	srv  *proto.Server
	lis  net.Listener
	done chan struct{}
}

// StartBackend boots a backend: recovered from DataDir when it holds
// scene files, built fresh from cfg.Scenes otherwise (writing the scene
// files once, so a replica can cold-start from the directory).
// The session journal, when DataDir is set, is replayed so sessions
// parked by a prior incarnation resume here.
func StartBackend(cfg BackendConfig) (*Backend, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	st := cfg.Stats
	if st == nil {
		st = stats.New()
	}
	b := &Backend{cfg: cfg, st: st, reg: engine.NewRegistry()}
	fresh := true
	if cfg.DataDir != "" {
		n, err := b.reg.LoadAll(cfg.DataDir, st)
		if err != nil {
			return nil, err
		}
		fresh = n == 0
	}
	if fresh {
		for _, sc := range cfg.Scenes {
			if sc.Stats == nil {
				sc.Stats = st
			}
			if _, err := b.reg.Build(sc); err != nil {
				return nil, err
			}
		}
		if cfg.DataDir != "" && len(cfg.Scenes) > 0 {
			if err := b.reg.SaveAll(cfg.DataDir, st); err != nil {
				return nil, err
			}
		}
	}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, err
		}
		jr, err := engine.OpenSessionJournal(filepath.Join(cfg.DataDir, engine.SessionJournalFile), 0, st)
		if err != nil {
			return nil, err
		}
		b.jr = jr
		b.reg.SetSessionJournal(jr)
		jr.Restore(b.reg)
	}
	b.srv = proto.NewMultiServer(b.reg, cfg.Logf)
	b.srv.SetStats(st)
	b.srv.SetDrainTimeout(time.Second)
	lis, err := net.Listen("tcp", cfg.Addr)
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
	return b, nil
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
func (b *Backend) Stats() *stats.Stats { return b.st }

// Stop shuts the backend down orderly: drained connections, closed
// journal.
func (b *Backend) Stop() {
	if b.srv != nil {
		b.srv.Close()
	}
	if b.done != nil {
		<-b.done
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
// scene was built, and the live resume entries encoded in park format.
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
	if _, err := b.reg.LoadScene(path, b.st); err != nil {
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
