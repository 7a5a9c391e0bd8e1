package engine

import "fmt"

// This file is the engine side of a cluster drain: the hooks a
// controller composes, with the scene's segment (which the backends
// copy), to move one scene between backends by ship-and-replay.
// ExportSessions/ImportSessions move the parked resume state, and
// RemoveScene retires the source copy (tombstoning its journal entries
// so the shipped sessions have exactly one durable home).

// RemoveScene unregisters a scene and retires its session table, whose
// capacity drops to 0: every parked lineage is tombstoned — after a
// drain ships them, the target's journal is their one durable home and
// a source restart must not resurrect stale copies — and a connection
// still bound to the scene that drops later is discarded, not parked.
// Returns the number of parked lineages purged. Removing the default
// scene promotes the next registered scene.
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
	return sc.Sessions.setBounds(0, 0), nil
}

// ExportSessions encodes every unexpired parked lineage of a scene in
// the session journal's park format — the wire a drain ships resume
// state over.
func (r *Registry) ExportSessions(scene string) ([][]byte, error) {
	sc, ok := r.Get(scene)
	if !ok {
		return nil, fmt.Errorf("engine: unknown scene %q", scene)
	}
	return sc.Sessions.export(), nil
}

// ImportSessions parks shipped lineages in a scene this registry serves
// (Sessions.adopt), each journaled before it can be taken. A payload
// for the wrong scene is an error — shipping must never graft one
// scene's delivered-set onto another. Returns the number imported
// (records a full table refuses or already expired are dropped, not
// errors).
func (r *Registry) ImportSessions(scene string, payloads [][]byte) (int, error) {
	sc, ok := r.Get(scene)
	if !ok {
		return 0, fmt.Errorf("engine: unknown scene %q", scene)
	}
	n := 0
	for _, p := range payloads {
		park, err := decodePark(p)
		if err != nil {
			return n, fmt.Errorf("engine: import session: %w", err)
		}
		if park.scene != scene {
			return n, fmt.Errorf("engine: shipped session belongs to scene %q, not %q", park.scene, scene)
		}
		if sc.Sessions.adopt(park, p) {
			n++
		}
	}
	return n, nil
}
