package main

import (
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/mesh"
	"repro/internal/proto"
	"repro/internal/retrieval"
	"repro/internal/rtree"
	"repro/internal/wavelet"
)

// oracle answers trips the plainest way the repo can: one
// retrieval.Session per trip over a serial index.MotionAware on the
// resident store — no shards, cache, coalescer, pager or socket. Whatever
// the served stack returns must equal it.
type oracle struct {
	store *index.Store
	srv   *retrieval.Server
}

func newOracle(store *index.Store) *oracle {
	srv := retrieval.NewServer(store, index.NewMotionAware(store, index.XYW, rtree.Config{}))
	srv.SetStats(nil)
	srv.SetParallelism(1)
	return &oracle{store: store, srv: srv}
}

// expectation is what the oracle owes one trip: the new-coefficient count
// of every frame and, for warm-up trips, the reconstruction state the
// client must end in.
type expectation struct {
	counts []int32
	final  map[int32]*wavelet.Reconstructor
}

func (o *oracle) replay(t trip, wantFinal bool) expectation {
	// Plan, retrieve on the session's reusable scratch, advance: the same
	// answers as retrieval.Client.Frame without its per-frame allocations.
	sess, planner := retrieval.NewSession(o.srv), retrieval.NewClient(nil, nil)
	e := expectation{counts: make([]int32, len(t))}
	if wantFinal {
		e.final = make(map[int32]*wavelet.Reconstructor)
	}
	baseVerts := int32(o.store.BaseVerts())
	for i, fr := range t {
		resp := sess.RetrieveScratch(planner.PlanFrame(fr.Q, fr.Speed))
		planner.Advance(fr.Q, fr.Speed)
		e.counts[i] = int32(len(resp.IDs))
		if !wantFinal {
			continue
		}
		for _, id := range resp.IDs {
			co := index.MustCoeff(o.store, id)
			applyCoeff(e.final, co.Object, co.Vertex, co.Delta, baseVerts)
		}
	}
	return e
}

// replayAll answers every trip of every client's pool, one goroutine per
// client; the first warm trips of each pool keep their end state.
func (o *oracle) replayAll(trips [numClients][]trip, warm int) [numClients][]expectation {
	var out [numClients][]expectation
	var wg sync.WaitGroup
	for c := range trips {
		out[c] = make([]expectation, len(trips[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k, t := range trips[c] {
				out[c][k] = o.replay(t, k < warm)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// applyCoeff does what the wire client does with a received coefficient:
// route it to its object's reconstructor, created on first contact over
// the octahedron every hello announces, a base vertex if its id is below
// baseVerts.
func applyCoeff(recons map[int32]*wavelet.Reconstructor, object, vertex int32, delta geom.Vec3, baseVerts int32) {
	r, ok := recons[object]
	if !ok {
		r = wavelet.NewReconstructor(mesh.Octahedron(), geom.Vec3{}, cityLevels)
		recons[object] = r
	}
	level := int8(0)
	if vertex < baseVerts {
		level = wavelet.BaseLevel
	}
	r.Apply(wavelet.Coefficient{Object: object, Vertex: vertex, Level: level, Delta: delta})
}

// checkFinal compares a wire client's end state with the oracle's: the
// object set, each object's coefficient count, and every reconstructed
// vertex — the repo's byte-identity invariant.
func checkFinal(c *proto.Client, want map[int32]*wavelet.Reconstructor) error {
	got := c.Objects()
	if len(got) != len(want) {
		return fmt.Errorf("client holds %d objects, oracle %d", len(got), len(want))
	}
	for _, id := range got {
		w, ok := want[id]
		if !ok {
			return fmt.Errorf("client holds object %d, oracle does not", id)
		}
		if c.CoeffCount(id) != w.Count() {
			return fmt.Errorf("object %d: client holds %d coefficients, oracle %d", id, c.CoeffCount(id), w.Count())
		}
		gm, _ := c.Mesh(id)
		wm := w.Mesh()
		if len(gm.Verts) != len(wm.Verts) {
			return fmt.Errorf("object %d: client mesh has %d vertices, oracle %d", id, len(gm.Verts), len(wm.Verts))
		}
		for i := range wm.Verts {
			if gm.Verts[i] != wm.Verts[i] {
				return fmt.Errorf("object %d: vertex %d differs from the oracle's", id, i)
			}
		}
	}
	return nil
}
