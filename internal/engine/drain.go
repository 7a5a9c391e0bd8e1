package engine

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/persist"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file is the engine side of a cluster drain: the hooks a
// controller composes to move one scene between backends by
// checkpoint-ship-replay. SaveScene/LoadScene move the data,
// ExportSessions/ImportSessions move the parked resume state, and
// RemoveScene retires the source copy (tombstoning its journal entries
// so the shipped sessions have exactly one durable home).

// SaveScene writes one scene's durable checkpoint to dir (created if
// missing) and returns the file path. Unlike SaveAll it is an error to
// name a scene without a dataset — a drain that cannot ship the data
// must fail loudly, not silently relocate an empty scene.
func (r *Registry) SaveScene(dir, name string, st *stats.Stats) (string, error) {
	r.mu.RLock()
	sc, ok := r.scenes[name]
	ordinal := 0
	for i, n := range r.order {
		if n == name {
			ordinal = i
		}
	}
	r.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("engine: unknown scene %q", name)
	}
	if sc.Dataset == nil {
		return "", fmt.Errorf("engine: scene %q has no dataset to checkpoint", name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var payload bytes.Buffer
	if err := sc.Dataset.Save(&payload); err != nil {
		return "", fmt.Errorf("engine: checkpoint scene %q: %w", name, err)
	}
	meta := checkpointMeta{ordinal: ordinal, levels: sc.Levels, shards: sc.Shards, name: name}
	path := CheckpointPath(dir, name)
	written, err := persist.WriteFileAtomic(path, func(w *persist.Writer) error {
		if err := w.WriteRecord(encodeCheckpointMeta(meta)); err != nil {
			return err
		}
		return w.WriteRecord(payload.Bytes())
	})
	if err != nil {
		return "", fmt.Errorf("engine: checkpoint scene %q: %w", name, err)
	}
	st.Add(stats.EngineCheckpoints, 1)
	st.Add(stats.EngineCheckpointBytes, written)
	return path, nil
}

// LoadScene builds and registers one scene from a shipped checkpoint
// file. Where LoadAll salvages what it can from a damaged directory,
// LoadScene is strict — a drain adopting a scene must get exactly the
// records the source wrote, so any torn tail, quarantined record, or
// short file is an error.
func (r *Registry) LoadScene(path string, st *stats.Stats) (*Scene, error) {
	recs, rec, err := persist.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("engine: load scene %s: %w", path, err)
	}
	if rec.TailTruncated > 0 || rec.Quarantined > 0 || len(recs) < 2 {
		return nil, fmt.Errorf("engine: load scene %s: checkpoint damaged (%d records, %d quarantined, torn tail %v)",
			path, len(recs), rec.Quarantined, rec.TailTruncated > 0)
	}
	meta, err := decodeCheckpointMeta(recs[0])
	if err != nil {
		return nil, fmt.Errorf("engine: load scene %s: %w", path, err)
	}
	d, err := workload.Load(bytes.NewReader(recs[1]), false)
	if err != nil {
		return nil, fmt.Errorf("engine: load scene %s: %w", path, err)
	}
	return r.Build(SceneConfig{
		Name:    meta.name,
		Dataset: d,
		Levels:  meta.levels,
		Shards:  meta.shards,
		Stats:   st,
	})
}

// RemoveScene unregisters a scene and purges its resume cache,
// tombstoning every parked session in the attached journal — after a
// drain ships the sessions, the target's journal is their one durable
// home and a source restart must not resurrect stale copies. Returns
// the number of parked sessions purged. Removing the default scene
// promotes the next registered scene.
func (r *Registry) RemoveScene(name string) (int, error) {
	r.mu.Lock()
	sc, ok := r.scenes[name]
	if !ok {
		r.mu.Unlock()
		return 0, fmt.Errorf("engine: unknown scene %q", name)
	}
	delete(r.scenes, name)
	for i, n := range r.order {
		if n == name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
	return sc.Resume.Purge(), nil
}

// ExportSessions encodes every live parked session of a scene in the
// session journal's park format — the wire a drain ships resume state
// over. Expired entries are skipped.
func (r *Registry) ExportSessions(scene string) ([][]byte, error) {
	sc, ok := r.Get(scene)
	if !ok {
		return nil, fmt.Errorf("engine: unknown scene %q", scene)
	}
	return sc.Resume.exportParked(scene), nil
}

// ImportSessions re-parks shipped sessions into a scene this registry
// serves: each payload is decoded, its session rebuilt against the
// local scene's server, parked under its original token and expiry,
// flagged Restored (the first resume served from it is counted like a
// crash-recovery restore), and journaled locally when a session journal
// is attached. A payload for the wrong scene is an error — shipping
// must never graft one scene's delivered-set onto another. Returns the
// number imported (full cache or already-expired entries are dropped,
// not errors).
func (r *Registry) ImportSessions(scene string, payloads [][]byte) (int, error) {
	sc, ok := r.Get(scene)
	if !ok {
		return 0, fmt.Errorf("engine: unknown scene %q", scene)
	}
	r.mu.RLock()
	j := r.journal
	r.mu.RUnlock()
	n := 0
	for _, p := range payloads {
		park, err := decodePark(p)
		if err != nil {
			return n, fmt.Errorf("engine: import session: %w", err)
		}
		if park.scene != scene {
			return n, fmt.Errorf("engine: shipped session belongs to scene %q, not %q", park.scene, scene)
		}
		e := &ResumeEntry{
			Session:  retrieval.RestoreSession(sc.Server, park.delivered),
			Seq:      park.seq,
			LastIDs:  park.lastIDs,
			Restored: true,
		}
		if sc.Resume.putRestored(park.token, e, time.Unix(0, park.expires)) {
			j.RecordPark(park.token, scene, e)
			n++
		}
	}
	return n, nil
}

// exportParked encodes the cache's live entries in park format.
func (c *ResumeCache) exportParked(scene string) [][]byte {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, 0, len(c.entries))
	now := time.Now()
	for token, e := range c.entries {
		if now.After(e.expires) {
			continue
		}
		out = append(out, encodePark(token, scene, e))
	}
	return out
}

// Purge removes every parked session, tombstoning each in the attached
// journal, and returns the count removed.
func (c *ResumeCache) Purge() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	tokens := make([]uint64, 0, len(c.entries))
	for t := range c.entries {
		tokens = append(tokens, t)
	}
	c.entries = make(map[uint64]*ResumeEntry)
	c.order = c.order[:0]
	j := c.journal
	c.mu.Unlock()
	if j != nil {
		for _, t := range tokens {
			j.RecordTake(t)
		}
	}
	return len(tokens)
}
