package buffer

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/stats"
)

// Fetcher supplies block payloads: the serialized size of the data needed
// to render grid block `cell` at resolution wmin (coefficients with value
// ≥ wmin whose support intersects the block). The retrieval server
// implements it; tests use fakes.
type Fetcher interface {
	BlockBytes(cell geom.Cell, wmin float64) int64
}

// Policy selects the prefetching strategy.
type Policy int

const (
	// MotionAware prefetches by predicted visit probability, allocating the
	// buffer across k directions with the recursive equation-(2) scheme.
	MotionAware Policy = iota
	// NaiveUniform buffers the blocks surrounding the query frame with
	// equal probability in every direction (the baseline of §VII-C).
	NaiveUniform
)

func (p Policy) String() string {
	if p == MotionAware {
		return "motion-aware"
	}
	return "naive-uniform"
}

// Metrics accumulates the buffer-management measurements of the paper.
type Metrics struct {
	Hits   int64 // needed blocks found in the buffer
	Misses int64 // needed blocks fetched on demand

	DemandBytes   int64 // bytes fetched on misses
	PrefetchBytes int64 // bytes fetched speculatively
	UsedPrefetch  int64 // prefetched bytes later needed by a query
	Connections   int64 // server round-trips (one per step with any fetch)
	EvictedUnused int64 // prefetched bytes evicted without ever being used
}

// HitRate returns hits / (hits + misses); 0 before any access.
func (m Metrics) HitRate() float64 {
	tot := m.Hits + m.Misses
	if tot == 0 {
		return 0
	}
	return float64(m.Hits) / float64(tot)
}

// Utilization returns the fraction of prefetched bytes that were actually
// used — the data-utilization metric of Figure 10(b); 0 before any
// prefetch.
func (m Metrics) Utilization() float64 {
	if m.PrefetchBytes == 0 {
		return 0
	}
	return float64(m.UsedPrefetch) / float64(m.PrefetchBytes)
}

// TotalBytes returns all bytes moved over the link by this manager.
func (m Metrics) TotalBytes() int64 { return m.DemandBytes + m.PrefetchBytes }

type block struct {
	cell       geom.Cell
	wmin       float64
	bytes      int64
	prefetched bool
	used       bool
	prob       float64 // last computed visit probability (eviction rank)
}

// Config parameterizes a Manager.
type Config struct {
	Grid     *geom.Grid
	Capacity int64 // buffer size in bytes (paper: 16 KB – 128 KB)
	Policy   Policy
	K        int // directions for the motion-aware allocation; default 4
	Horizon  int // prediction look-ahead in steps; default 6
	History  int // predictor order; default 3
	// ResolutionMargin makes every fetch slightly finer than the speed
	// strictly requires (fetch at wmin − margin). Instantaneous speed
	// jitters from step to step; without the margin a block fetched at the
	// current resolution is invalidated by any minuscule slowdown, and the
	// buffer never gets reused. Negative disables; 0 → 0.1.
	ResolutionMargin float64
	// RetainDelivered models the full system of §VII-E rather than the
	// isolated buffer of §VII-C: the client keeps every coefficient ever
	// delivered in its rendering state (Algorithm 1 retrieves increments
	// only), so re-fetching an evicted block moves no bytes over the link
	// when the data was delivered before at sufficient resolution. Buffer
	// hit/miss metrics are unaffected; only the link-facing demand bytes
	// and connection counts shrink.
	RetainDelivered bool
	// Estimator overrides the motion model. Nil uses the paper's RLS
	// predictor with `History` displacements; motion.NewLinearPredictor()
	// gives the constant-velocity baseline of prior work for ablations.
	Estimator motion.Estimator
	// Stats receives hit/miss and link-byte counts in addition to the
	// per-manager Metrics. Nil records into stats.Default (recording is
	// a few wait-free atomic adds per step).
	Stats *stats.Stats
}

// Manager is the client-side buffer: it serves the blocks each query
// frame needs (counting hits and misses), prefetches likely-next blocks
// within the byte capacity, and evicts the least promising blocks when
// over capacity.
type Manager struct {
	cfg     Config
	fetcher Fetcher
	pred    motion.Estimator
	blocks  map[geom.Cell]*block
	bytes   int64
	met     Metrics
	// delivered tracks, per cell, the finest resolution (lowest wmin) ever
	// sent to this client. Only used with RetainDelivered.
	delivered map[geom.Cell]float64
}

// NewManager creates a buffer manager. Capacity must be positive.
func NewManager(cfg Config, f Fetcher) *Manager {
	if cfg.Grid == nil {
		panic("buffer: nil grid")
	}
	if cfg.Capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 6
	}
	if cfg.History == 0 {
		cfg.History = 3
	}
	if cfg.ResolutionMargin == 0 {
		cfg.ResolutionMargin = 0.1
	}
	if cfg.ResolutionMargin < 0 {
		cfg.ResolutionMargin = 0
	}
	pred := cfg.Estimator
	if pred == nil {
		pred = motion.NewPredictor(cfg.History)
	}
	if cfg.Stats == nil {
		cfg.Stats = stats.Default
	}
	return &Manager{
		cfg:       cfg,
		fetcher:   f,
		pred:      pred,
		blocks:    make(map[geom.Cell]*block),
		delivered: make(map[geom.Cell]float64),
	}
}

// Metrics returns the accumulated measurements.
func (m *Manager) Metrics() Metrics { return m.met }

// Resident returns the number of buffered blocks and their total bytes.
func (m *Manager) Resident() (int, int64) { return len(m.blocks), m.bytes }

// StepResult reports what one query frame cost the link.
type StepResult struct {
	Demand     int64 // bytes fetched on demand for the frame itself
	Prefetched int64 // bytes fetched speculatively during the refill
	Misses     int   // needed blocks not found in the buffer
	Blocks     int   // needed blocks total
}

// Missed reports whether the step required contacting the server.
func (r StepResult) Missed() bool { return r.Misses > 0 }

// Step processes one query frame: the client is at pos, needs the blocks
// intersecting frame at resolution wmin, and — on a miss — refills the
// buffer with prefetched blocks for the following frames.
func (m *Manager) Step(pos geom.Vec2, frame geom.Rect2, wmin float64) StepResult {
	m.pred.Observe(pos)
	fetchW := wmin - m.cfg.ResolutionMargin
	if fetchW < 0 {
		fetchW = 0
	}
	needed := m.cfg.Grid.CellsIn(frame)
	neededSet := make(map[geom.Cell]bool, len(needed))
	var res StepResult
	res.Blocks = len(needed)
	for _, c := range needed {
		neededSet[c] = true
		blk, ok := m.blocks[c]
		if ok && blk.wmin <= wmin {
			m.met.Hits++
			if blk.prefetched && !blk.used {
				blk.used = true
				m.met.UsedPrefetch += blk.bytes
			}
			continue
		}
		// Miss: fetch on demand at the required resolution. A block held at
		// a coarser resolution is re-fetched (the refinement delta costs as
		// much as the full finer block in this accounting — a conservative
		// upper bound).
		m.met.Misses++
		res.Misses++
		if ok {
			m.drop(blk)
		}
		b := &block{cell: c, wmin: fetchW, bytes: m.fetcher.BlockBytes(c, fetchW)}
		m.insert(b)
		res.Demand += m.transferBytes(c, fetchW, b.bytes)
	}
	m.met.DemandBytes += res.Demand

	// Refill only on a miss: between misses the client stays inside the
	// buffered region without contacting the server at all — maximizing
	// that residence time is the whole objective of the §V-A cost model.
	// The demand fetch and the prefetch share one connection.
	if res.Misses > 0 {
		before := m.met.PrefetchBytes
		m.refill(pos, frame, fetchW, neededSet)
		res.Prefetched = m.met.PrefetchBytes - before
		if !m.cfg.RetainDelivered || res.Demand > 0 || res.Prefetched > 0 {
			m.met.Connections++
		}
	}
	m.enforceCapacity(neededSet)
	st := m.cfg.Stats
	st.Add(stats.BufferHits, int64(res.Blocks-res.Misses))
	st.Add(stats.BufferMisses, int64(res.Misses))
	st.Add(stats.BufferDemandBytes, res.Demand)
	st.Add(stats.BufferPrefetchBytes, res.Prefetched)
	return res
}

// transferBytes returns the bytes a block fetch actually moves over the
// link and records the delivery. Without RetainDelivered that is the full
// block; with it, only the increment beyond the finest resolution ever
// delivered for the cell (zero when the client already holds finer data).
func (m *Manager) transferBytes(c geom.Cell, fetchW float64, full int64) int64 {
	if !m.cfg.RetainDelivered {
		return full
	}
	prev, ok := m.delivered[c]
	if !ok {
		m.delivered[c] = fetchW
		return full
	}
	if prev <= fetchW {
		return 0 // already delivered at equal or finer resolution
	}
	m.delivered[c] = fetchW
	delta := full - m.fetcher.BlockBytes(c, prev)
	if delta < 0 {
		delta = 0
	}
	return delta
}

// enforceCapacity drops blocks until the buffer fits. Non-needed blocks
// go first (least promising first); if the current frame alone exceeds
// the capacity — a slow client demanding full resolution — even its own
// blocks are dropped and will miss again next frame. This strictness is
// what makes the buffer experiments meaningful: a 16 KB buffer must not
// secretly hold a 600 KB frame.
func (m *Manager) enforceCapacity(neededSet map[geom.Cell]bool) {
	if m.bytes <= m.cfg.Capacity {
		return
	}
	victims := make([]*block, 0, len(m.blocks))
	var needed []*block
	for _, b := range m.blocks {
		if neededSet[b.cell] {
			needed = append(needed, b)
		} else {
			victims = append(victims, b)
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].prob != victims[j].prob {
			return victims[i].prob < victims[j].prob
		}
		if victims[i].cell.Row != victims[j].cell.Row {
			return victims[i].cell.Row < victims[j].cell.Row
		}
		return victims[i].cell.Col < victims[j].cell.Col
	})
	sort.Slice(needed, func(i, j int) bool {
		if needed[i].cell.Row != needed[j].cell.Row {
			return needed[i].cell.Row < needed[j].cell.Row
		}
		return needed[i].cell.Col < needed[j].cell.Col
	})
	for _, v := range victims {
		if m.bytes <= m.cfg.Capacity {
			return
		}
		m.drop(v)
	}
	for _, v := range needed {
		if m.bytes <= m.cfg.Capacity {
			return
		}
		m.drop(v)
	}
}

func (m *Manager) insert(b *block) {
	m.blocks[b.cell] = b
	m.bytes += b.bytes
}

func (m *Manager) drop(b *block) {
	if b.prefetched && !b.used {
		m.met.EvictedUnused += b.bytes
	}
	delete(m.blocks, b.cell)
	m.bytes -= b.bytes
}

// refill re-optimizes the buffer contents on a miss event: the frame's
// own blocks are pinned, the remaining capacity is (re)assigned to the
// policy's ranked prefetch candidates — reusing already-buffered blocks
// for free, fetching new ones — and everything else is evicted. Evicted
// prefetches that were never used count as wasted bandwidth.
func (m *Manager) refill(pos geom.Vec2, frame geom.Rect2, wmin float64, neededSet map[geom.Cell]bool) {
	var neededBytes int64
	for c := range neededSet {
		if b, ok := m.blocks[c]; ok {
			neededBytes += b.bytes
		}
	}
	budget := m.cfg.Capacity - neededBytes
	var candidates []geom.Cell
	var probs map[geom.Cell]float64
	switch m.cfg.Policy {
	case MotionAware:
		candidates, probs = m.motionAwareCandidates(pos, frame, neededSet, budget, wmin)
	default:
		candidates = m.uniformCandidates(pos, neededSet)
	}
	keep := make(map[geom.Cell]bool, len(candidates))
	for _, c := range candidates {
		if budget <= 0 {
			break
		}
		if blk, ok := m.blocks[c]; ok && blk.wmin <= wmin {
			// Already buffered at sufficient resolution: retain for free.
			keep[c] = true
			blk.prob = probs[c]
			budget -= blk.bytes
			continue
		}
		bytes := m.fetcher.BlockBytes(c, wmin)
		if bytes <= 0 || bytes > budget {
			continue
		}
		if old, ok := m.blocks[c]; ok {
			m.drop(old)
		}
		m.insert(&block{cell: c, wmin: wmin, bytes: bytes, prefetched: true, prob: probs[c]})
		keep[c] = true
		m.met.PrefetchBytes += m.transferBytes(c, wmin, bytes)
		budget -= bytes
	}
	// Evict everything that is neither needed now nor selected.
	var victims []*block
	for _, b := range m.blocks {
		if !neededSet[b.cell] && !keep[b.cell] {
			victims = append(victims, b)
		}
	}
	for _, v := range victims {
		m.drop(v)
	}
}

// motionAwareCandidates ranks unbuffered blocks by predicted visit
// probability, honoring the per-direction block allocation of §V-A.
func (m *Manager) motionAwareCandidates(pos geom.Vec2, frame geom.Rect2, neededSet map[geom.Cell]bool, budget int64, wmin float64) ([]geom.Cell, map[geom.Cell]float64) {
	g := m.cfg.Grid
	side := math.Max(frame.Width(), frame.Height())
	probs := motion.FrameVisitProbabilities(m.pred, g, m.cfg.Horizon, side)
	if len(probs) == 0 {
		return m.uniformCandidates(pos, neededSet), nil
	}
	sectorProbs := motion.SectorProbabilities(pos, probs, g, m.cfg.K)

	// Estimate how many blocks the budget affords to size the allocation.
	est := m.fetcher.BlockBytes(g.CellAt(pos), wmin)
	if est <= 0 {
		est = 1
	}
	totalBlocks := int(budget / est)
	if totalBlocks < 1 {
		totalBlocks = 1
	}
	shares := Allocate(sectorProbs, totalBlocks)

	// Rank candidate cells per sector by probability.
	type scored struct {
		cell geom.Cell
		p    float64
	}
	sectors := make([][]scored, m.cfg.K)
	width := 2 * math.Pi / float64(m.cfg.K)
	for c, pv := range probs {
		if neededSet[c] {
			continue
		}
		d := g.CellCenter(c).Sub(pos)
		idx := 0
		if d.Len() > 0 {
			idx = int(math.Floor((d.Angle()+width/2)/width)) % m.cfg.K
		}
		sectors[idx] = append(sectors[idx], scored{cell: c, p: pv})
	}
	cellLess := func(a, b geom.Cell) bool {
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		return a.Col < b.Col
	}
	var out []geom.Cell
	for i, sc := range sectors {
		// Probability order with a deterministic cell tie-break: map
		// iteration order must not leak into prefetch decisions, or runs
		// stop being reproducible.
		sort.Slice(sc, func(a, b int) bool {
			if sc[a].p != sc[b].p {
				return sc[a].p > sc[b].p
			}
			return cellLess(sc[a].cell, sc[b].cell)
		})
		n := shares[i]
		if n > len(sc) {
			n = len(sc)
		}
		for _, s := range sc[:n] {
			out = append(out, s.cell)
		}
	}
	// Highest probability first across sectors so a tight budget buys the
	// most promising blocks.
	sort.Slice(out, func(a, b int) bool {
		if probs[out[a]] != probs[out[b]] {
			return probs[out[a]] > probs[out[b]]
		}
		return cellLess(out[a], out[b])
	})
	return out, probs
}

// uniformCandidates returns the blocks ringing the client's block,
// nearest ring first — the naive strategy that treats every direction as
// equally likely.
func (m *Manager) uniformCandidates(pos geom.Vec2, neededSet map[geom.Cell]bool) []geom.Cell {
	g := m.cfg.Grid
	center := g.CellAt(pos)
	var out []geom.Cell
	for ring := 1; ring <= 8; ring++ {
		for _, c := range g.Ring(center, ring) {
			if !neededSet[c] {
				out = append(out, c)
			}
		}
	}
	return out
}
