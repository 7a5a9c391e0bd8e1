package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/proto"
	"repro/internal/retrieval"
	"repro/internal/wavelet"
)

// The layer ladder: a workload's trips replayed socket-free, the
// benchmark itself performing the steps the server and the client perform
// for one frame, through the packages' public functions, with a span
// around each step. What the steps sum to is the part of a frame's
// latency the layers account for; the rest of the end-to-end latency is
// wire.gap_us — socket, scheduler and server-loop cost that cannot be
// timed from outside the program.

// Layer names, as they appear in spans. layerFrame is the root span of a
// frame and the parent of the others; its self time is the ladder's own
// bookkeeping.
const (
	layerFrame   = "frame"
	layerPlan    = "retrieval.plan"
	layerSearch  = "index.search"
	layerExecute = "retrieval.execute"
	layerFetch   = "store.fetch"
	layerEncode  = "proto.encode"
	layerDecode  = "proto.decode"
	layerApply   = "wavelet.apply"
)

// ladderStages are the layers whose times add up to a frame. The
// index.search probe is left out: it repeats work that happens inside
// retrieval.execute.
var ladderStages = []string{layerPlan, layerExecute, layerFetch, layerEncode, layerDecode, layerApply}

// span is one timed call into a layer. ID and Parent are indexes into the
// client's span list plus one, so 0 means no parent; Start and End are
// nanoseconds since the ladder began.
type span struct {
	Workload string `json:"workload"`
	Client   int    `json:"client"`
	Trip     int    `json:"trip"`
	Frame    int    `json:"frame"`
	Layer    string `json:"layer"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it its child spans cover. Spans must
// belong to one client, with ID = index + 1; children of one parent do
// not overlap, since a client's ladder runs on one goroutine.
func selfTimes(spans []span) map[string]int64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent > 0 {
			covered[s.Parent-1] += s.End - s.Start
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Layer] += s.End - s.Start - covered[i]
	}
	return out
}

// ladderCounts is what a replay counts besides time.
type ladderCounts struct {
	frames int
	// nodeIO is the summed index node reads of the search probes.
	nodeIO int64
	// wholesale counts first-of-trip frames the server could answer from
	// one cache entry (a valid HotRef), replayed those it answered from
	// the cached payload.
	wholesale, replayed int
	failed              int
	firstErr            error
}

// ladderResult is the traced replay's outcome, summed over the clients.
type ladderResult struct {
	ladderCounts
	// self is the summed self time per layer.
	self map[string]int64
	// Cache and coalescer counter deltas over the replay.
	hotHits, hotMisses, coShared, coRouted int64
	spans                                  [numClients][]span
}

// ladderClient replays one client's trips. trip and frame are where it
// is, for the spans it adds.
type ladderClient struct {
	ladderCounts
	workload    string
	client      int
	t0          time.Time
	trip, frame int
	spans       []span
}

func (lc *ladderClient) now() int64 { return int64(time.Since(lc.t0)) }

func (lc *ladderClient) add(layer string, parent int, start, end int64) int {
	lc.spans = append(lc.spans, span{
		Workload: lc.workload, Client: lc.client, Trip: lc.trip, Frame: lc.frame,
		Layer: layer, ID: len(lc.spans) + 1, Parent: parent, Start: start, End: end,
	})
	return len(lc.spans)
}

func (lc *ladderClient) fail(err error) {
	lc.failed++
	if lc.firstErr == nil {
		lc.firstErr = fmt.Errorf("ladder client %d, trip %d frame %d: %w", lc.client, lc.trip, lc.frame, err)
	}
}

func (lc *ladderClient) run(s *stack, trips []trip, want []expectation) {
	srv := s.scene.Server
	src := s.scene.Source
	searcher := s.scene.Index.(index.IntoSearcher)
	hot := srv.HotCache()
	bounds, baseVerts := src.Bounds(), int32(src.BaseVerts())
	var pins *index.Pins
	if ps, ok := src.(index.PinningSource); ok {
		pins = ps.NewPins()
	}
	// Per-connection scratch, reused across frames as the server and the
	// client reuse theirs.
	var (
		cur     index.Cursor
		probe   []int64
		coeffs  []proto.Coeff
		payload []byte
		wire    bytes.Buffer
		w       = proto.NewWriter(&wire)
		r       = proto.NewReader(&wire)
		resp    proto.Response
	)
	frames := 0
	for _, t := range trips {
		frames += len(t)
	}
	lc.spans = make([]span, 0, 9*frames) // a frame adds at most 9 spans
	for k, t := range trips {
		sess := retrieval.NewSession(srv)
		planner := retrieval.NewClient(nil, nil)
		recons := make(map[int32]*wavelet.Reconstructor)
		sub := hot.Subscribe()
		var seq int64
		for i, fr := range t {
			lc.trip, lc.frame = k, i
			f0 := lc.now()
			root := lc.add(layerFrame, 0, f0, f0)

			a := lc.now()
			subs := planner.PlanFrame(fr.Q, fr.Speed)
			b := lc.now()
			lc.add(layerPlan, root, a, b)

			// Probe: the raw index passes this frame's sub-queries cost,
			// result discarded.
			a = lc.now()
			for j := range subs {
				if subs[j].Region.Empty() || subs[j].WMin > subs[j].WMax {
					continue
				}
				var io int64
				probe, io = searcher.SearchInto(index.Query{
					Region: subs[j].Region, ZMin: bounds.Min.Z, ZMax: bounds.Max.Z,
					WMin: subs[j].WMin, WMax: subs[j].WMax,
				}, probe[:0], &cur)
				lc.nodeIO += io
			}
			b = lc.now()
			lc.add(layerSearch, root, a, b)

			a = lc.now()
			out := sess.RetrieveScratch(subs)
			b = lc.now()
			lc.add(layerExecute, root, a, b)
			seq++

			// The server's reply path: replay the hot entry's payload when
			// there is one, else fetch and encode the coefficients. The
			// look-up counts as reply assembly, like the encoding it saves.
			var body []byte
			if out.Hot.Valid {
				if i == 0 {
					lc.wholesale++
				}
				sub.Set(out.Hot.Query)
				if p, ok := hot.Payload(out.Hot.Query, out.Hot.Epoch); ok && len(p) == len(out.IDs)*wavelet.WireBytes {
					body = p
					if i == 0 {
						lc.replayed++
					}
				}
			}
			a = lc.now()
			lc.add(layerEncode, root, b, a)
			if body == nil {
				coeffs = coeffs[:0]
				for _, id := range out.IDs {
					var c *wavelet.Coefficient
					var err error
					if pins != nil {
						c, err = pins.Coeff(id)
					} else {
						c, err = src.Coeff(id)
					}
					if err != nil {
						lc.fail(err)
						continue
					}
					coeffs = append(coeffs, proto.Coeff{
						Object: c.Object, Vertex: c.Vertex, Delta: c.Delta,
						Pos:   [3]float32{float32(c.Pos.X), float32(c.Pos.Y), float32(c.Pos.Z)},
						Value: float32(c.Value),
					})
				}
				if pins != nil {
					pins.Release()
				}
				b = lc.now()
				lc.add(layerFetch, root, a, b)

				payload = proto.EncodeResponsePayload(payload[:0], coeffs)
				body = payload
				if out.Hot.Valid {
					hot.SetPayload(out.Hot.Query, out.Hot.Epoch, body)
				}
			} else {
				b = a
			}
			wire.Reset()
			err := w.WriteResponsePayload(len(body)/wavelet.WireBytes, out.IO, seq, body)
			a = lc.now()
			lc.add(layerEncode, root, b, a)
			if err != nil {
				lc.fail(fmt.Errorf("encode: %w", err))
				continue
			}

			// The client's side of the reply.
			tag, err := r.ReadTag()
			if err == nil && tag != proto.TagResponse {
				err = fmt.Errorf("tag %d", tag)
			}
			if err == nil {
				err = r.ReadResponseInto(&resp)
			}
			b = lc.now()
			lc.add(layerDecode, root, a, b)
			if err != nil {
				lc.fail(fmt.Errorf("decode: %w", err))
				continue
			}

			for j := range resp.Coeffs {
				pc := &resp.Coeffs[j]
				applyCoeff(recons, pc.Object, pc.Vertex, pc.Delta, baseVerts)
			}
			planner.Advance(fr.Q, fr.Speed)
			a = lc.now()
			lc.add(layerApply, root, b, a)
			lc.spans[root-1].End = a

			lc.frames++
			if int32(len(resp.Coeffs)) != want[k].counts[i] {
				lc.fail(fmt.Errorf("%d new coefficients, oracle says %d", len(resp.Coeffs), want[k].counts[i]))
			}
		}
		sub.Close()
	}
}

// runLadder replays the first n trips of each client's pool against the
// stack's scene, one goroutine per client, and sums what they recorded.
// The cache and coalescer counters are the deltas over the replay.
func runLadder(workload string, s *stack, trips [numClients][]trip, want [numClients][]expectation, n int) ladderResult {
	srv := s.scene.Server
	hot0, co0 := srv.HotCache().Stats(), srv.Coalescer().Stats()
	var clients [numClients]ladderClient
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range clients {
		clients[c] = ladderClient{workload: workload, client: c, t0: t0}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			clients[c].run(s, trips[c][:n], want[c][:n])
		}(c)
	}
	wg.Wait()
	hot1, co1 := srv.HotCache().Stats(), srv.Coalescer().Stats()

	res := ladderResult{self: make(map[string]int64)}
	for c := range clients {
		lc := &clients[c]
		res.frames += lc.frames
		res.nodeIO += lc.nodeIO
		res.wholesale += lc.wholesale
		res.replayed += lc.replayed
		res.failed += lc.failed
		if res.firstErr == nil {
			res.firstErr = lc.firstErr
		}
		for layer, ns := range selfTimes(lc.spans) {
			res.self[layer] += ns
		}
		res.spans[c] = lc.spans
	}
	res.hotHits, res.hotMisses = hot1.Hits-hot0.Hits, hot1.Misses-hot0.Misses
	res.coShared, res.coRouted = co1.Shared-co0.Shared, co1.Routed-co0.Routed
	return res
}

// writeTrace writes every span of every traced run as one JSON object per
// line.
func writeTrace(path string, runs [][numClients][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, spans := range runs {
		for c := range spans {
			for i := range spans[c] {
				if err := enc.Encode(&spans[c][i]); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
