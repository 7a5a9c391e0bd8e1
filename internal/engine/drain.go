package engine

import (
	"fmt"
	"time"

	"repro/internal/persist"
	"repro/internal/retrieval"
	"repro/internal/stats"
)

// This file is the engine side of a cluster drain: the hooks a
// controller composes to move one scene between backends by
// ship-and-replay. The scene file SaveAll wrote at boot carries the
// data and LoadScene adopts it, ExportSessions/ImportSessions move the
// parked resume state, and RemoveScene retires the source copy
// (tombstoning its journal entries so the shipped sessions have exactly
// one durable home).

// LoadScene builds and registers one scene from a shipped scene file.
// Where LoadAll salvages what it can from a damaged directory,
// LoadScene is strict — a drain adopting a scene must get exactly the
// records the source wrote, so any torn tail, quarantined record, or
// short file is an error.
func (r *Registry) LoadScene(path string, st *stats.Stats) (*Scene, error) {
	recs, rec, err := persist.RecoverFile(path)
	if err == nil && (rec.TailTruncated > 0 || rec.Quarantined > 0) {
		err = fmt.Errorf("scene file damaged (%d records, %d quarantined, torn tail %v)",
			len(recs), rec.Quarantined, rec.TailTruncated > 0)
	}
	var cfg SceneConfig
	if err == nil {
		_, cfg, err = decodeScene(recs, st)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: load scene %s: %w", path, err)
	}
	return r.Build(cfg)
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
// serves (see repark) and journals them locally when a session journal
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
		if e, ok := repark(sc, park); ok {
			j.RecordPark(park.token, scene, e)
			n++
		}
	}
	return n, nil
}

// repark re-parks a decoded session in its scene's resume cache under
// its original token and expiry, flagged Restored (the first resume
// served from it is counted like a crash-recovery restore); it reports
// whether the cache took it.
func repark(sc *Scene, park parkRecord) (*ResumeEntry, bool) {
	e := &ResumeEntry{
		Session:  retrieval.RestoreSession(sc.Server, park.delivered),
		Seq:      park.seq,
		LastIDs:  park.lastIDs,
		Restored: true,
	}
	return e, sc.Resume.putRestored(park.token, e, time.Unix(0, park.expires))
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
