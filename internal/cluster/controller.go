package cluster

import (
	"fmt"

	"repro/internal/stats"
)

// Controller orchestrates a gateway and the in-process backends behind
// it — the piece that can run the drain state machine, because it holds
// handles to both sides. (A gateway fronting out-of-process backends
// routes and fails over but cannot drain; see DESIGN.md §12.)
type Controller struct {
	gw       *Gateway
	backends map[string]*Backend // serving address → handle
	st       *stats.Stats
}

// NewController wires a gateway to its co-located backends. st receives
// the drain counter (nil → stats.Default).
func NewController(gw *Gateway, backends []*Backend, st *stats.Stats) *Controller {
	if st == nil {
		st = stats.Default
	}
	m := make(map[string]*Backend, len(backends))
	for _, b := range backends {
		m[b.Addr()] = b
	}
	return &Controller{gw: gw, backends: m, st: st}
}

// DrainReport summarizes one completed drain.
type DrainReport struct {
	Scene    string
	From, To string
	// Severed is how many live connections the drain disconnected on
	// the source; Shipped/Adopted count the parked sessions exported
	// and successfully re-parked on the target; Purged counts the
	// source-side tombstones written when the scene was dropped.
	Severed int
	Shipped int
	Adopted int
	Purged  int
}

// Drain relocates a scene from its current backend to the backend at
// target, live, without losing a session:
//
//  1. the gateway stops admitting new connections for the scene
//     (clients get a retryable error),
//  2. the source severs the scene's live connections and returns once
//     each handler has parked its lineage (journaled),
//  3. the scene's segment and the parked sessions are exported; the
//     target copies the segment page by page, CRC-checking each page,
//     opens it as a boot would, and adopts the sessions,
//  4. the gateway flips the scene's route to the target,
//  5. the source drops its copy (unregistered, tombstoned, segment
//     closed and removed).
//
// Reconnecting clients then land on the target and resume from the
// shipped sessions — the same token, not a re-plan. Any failure before
// the flip aborts the drain and leaves routing on the source (severed
// clients resume there).
func (c *Controller) Drain(scene, target string) (DrainReport, error) {
	rep := DrainReport{Scene: scene, To: target}
	replicas, _ := c.gw.replicas(scene)
	if replicas == nil {
		return rep, fmt.Errorf("cluster: unknown scene %q", scene)
	}
	var src *Backend
	for _, addr := range replicas {
		if b, ok := c.backends[addr]; ok {
			if _, found := b.Registry().Get(scene); found {
				src, rep.From = b, addr
				break
			}
		}
	}
	if src == nil {
		return rep, fmt.Errorf("cluster: no co-located backend serves scene %q", scene)
	}
	dst, ok := c.backends[target]
	if !ok {
		return rep, fmt.Errorf("cluster: unknown drain target %q", target)
	}
	if target == rep.From {
		return rep, fmt.Errorf("cluster: scene %q already lives on %s", scene, target)
	}
	if err := c.gw.BeginDrain(scene); err != nil {
		return rep, err
	}
	abort := func(err error) (DrainReport, error) {
		c.gw.AbortDrain(scene)
		return rep, err
	}

	var err error
	rep.Severed, err = src.Server().SeverScene(scene)
	if err != nil {
		return abort(fmt.Errorf("cluster: sever on %s: %w", rep.From, err))
	}

	seg, sessions, err := src.ExportScene(scene)
	if err != nil {
		return abort(fmt.Errorf("cluster: export: %w", err))
	}
	rep.Shipped = len(sessions)
	rep.Adopted, err = dst.AdoptScene(scene, seg, sessions)
	if err != nil {
		return abort(fmt.Errorf("cluster: adopt: %w", err))
	}

	c.gw.FinishDrain(scene, target)
	if err := src.DropScene(scene); err != nil {
		// Routing already flipped; the drain succeeded for clients. A
		// failed source cleanup is reported but does not undo the move.
		return rep, fmt.Errorf("cluster: drop after flip: %w", err)
	}
	rep.Purged = rep.Shipped
	c.st.Add(stats.ClusterDrains, 1)
	return rep, nil
}
