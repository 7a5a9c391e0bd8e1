package index

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rtree"
	"repro/internal/stats"
	"repro/internal/wavelet"
)

// ShardedConfig parameterizes a Sharded index.
type ShardedConfig struct {
	// Shards is the number of grid cells K the scene's XY bounds are
	// partitioned into (≤ 0 → 1). The grid is the factor pair r×c = K
	// closest to square, so K = 7 degrades to a 1×7 slab partition.
	Shards int
	// Tree configures the per-shard R*-trees. Zero Dims is filled in from
	// the layout, as everywhere else in this package.
	Tree rtree.Config
}

// shard is one grid cell's index: its own R*-tree and the union of the
// rectangles it holds, which decides whether a query searches it.
type shard struct {
	tree     *rtree.Tree
	bounds   rtree.Rect
	nonempty bool
}

// grow widens the shard's content MBR to cover r.
func (s *shard) grow(r rtree.Rect, dims int) {
	if !s.nonempty {
		s.bounds = r
		s.nonempty = true
		return
	}
	for d := 0; d < dims; d++ {
		if r.Lo[d] < s.bounds.Lo[d] {
			s.bounds.Lo[d] = r.Lo[d]
		}
		if r.Hi[d] > s.bounds.Hi[d] {
			s.bounds.Hi[d] = r.Hi[d]
		}
	}
}

// overlaps reports whether the query rectangle can intersect anything in
// this shard.
func (s *shard) overlaps(q *rtree.Rect, dims int) bool {
	if !s.nonempty {
		return false
	}
	for d := 0; d < dims; d++ {
		if q.Lo[d] > s.bounds.Hi[d] || s.bounds.Lo[d] > q.Hi[d] {
			return false
		}
	}
	return true
}

// Sharded is the spatially partitioned motion-aware index: the scene's XY
// bounds are cut into a K-cell grid, each cell holding its own R*-tree
// over the coefficients whose vertex position falls inside it. Search
// visits the overlapping shards one after another on the calling
// goroutine and merges the hits into ascending id order, so responses
// are byte-identical to the serial MotionAware oracle (support regions
// may straddle cell borders; the per-shard content MBRs keep the shard
// selection exact). A served scene never changes after its build, so
// any number of searches run at once without a lock.
type Sharded struct {
	src    CoefficientSource
	layout Layout
	shards []*shard
	rows   int
	cols   int
	// Grid geometry over the source's XY bounds at build time.
	x0, y0 float64
	dx, dy float64

	st *stats.Stats
}

// NewSharded partitions the source into cfg.Shards grid cells and bulk
// loads one R*-tree per cell, the independent loads running side by side
// on up to GOMAXPROCS goroutines (build time only; searches spawn
// nothing). K = 1 is the degenerate single-shard case: the same tree a
// MotionAware build produces.
func NewSharded(src CoefficientSource, layout Layout, cfg ShardedConfig) *Sharded {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	tcfg := cfg.Tree
	if tcfg.Dims == 0 {
		tcfg = rtree.DefaultConfig(layout.Dims())
	}
	rows, cols := gridShape(cfg.Shards)
	b := src.Bounds().XY()
	s := &Sharded{
		src:    src,
		layout: layout,
		shards: make([]*shard, cfg.Shards),
		rows:   rows,
		cols:   cols,
		x0:     b.Min.X,
		y0:     b.Min.Y,
		dx:     b.Width() / float64(cols),
		dy:     b.Height() / float64(rows),
	}
	dims := tcfg.Dims
	// One pass over the source fills one array, sized for every
	// coefficient, in id order, noting each coefficient's shard. A stable
	// partition by counting then moves each shard's items together in
	// place, keeping them in id order, the order STR breaks ties in.
	items := make([]rtree.Item, 0, src.NumCoeffs())
	dest := make([]int, 0, src.NumCoeffs()) // each item's shard, then its place
	ends := make([]int, cfg.Shards)         // each shard's count, then its end
	src.scan(func(id int64, c *wavelet.Coefficient) {
		k := s.shardOf(c.Pos.X, c.Pos.Y)
		items = append(items, rtree.Item{Rect: layout.supportRect(c), Data: id})
		dest = append(dest, k)
		ends[k]++
	})
	off := 0
	for k, n := range ends {
		ends[k], off = off, off+n
	}
	for i, k := range dest {
		dest[i] = ends[k]
		ends[k]++
	}
	for i := range items {
		for dest[i] != i {
			j := dest[i]
			items[i], items[j] = items[j], items[i]
			dest[i], dest[j] = dest[j], dest[i]
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(cfg.Shards, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < cfg.Shards; k = int(next.Add(1)) - 1 {
				lo := 0
				if k > 0 {
					lo = ends[k-1]
				}
				own := items[lo:ends[k]]
				sh := &shard{tree: rtree.BulkLoad(tcfg, own)}
				for i := range own {
					sh.grow(own[i].Rect, dims)
				}
				s.shards[k] = sh
			}
		}()
	}
	wg.Wait()
	return s
}

// gridShape returns the factor pair rows×cols = k with the smallest
// aspect skew, cols ≥ rows (7 → 1×7, 16 → 4×4).
func gridShape(k int) (rows, cols int) {
	rows = 1
	for r := 1; r*r <= k; r++ {
		if k%r == 0 {
			rows = r
		}
	}
	return rows, k / rows
}

// shardOf maps a vertex position to its owning shard. Positions on the
// partition's edge clamp into the border cells, so every coefficient has
// exactly one owner.
func (s *Sharded) shardOf(x, y float64) int {
	col, row := 0, 0
	if s.dx > 0 {
		col = int((x - s.x0) / s.dx)
	}
	if s.dy > 0 {
		row = int((y - s.y0) / s.dy)
	}
	if col < 0 {
		col = 0
	}
	if col >= s.cols {
		col = s.cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= s.rows {
		row = s.rows - 1
	}
	return row*s.cols + col
}

// SetStats wires the per-shard search counters into a collector (nil
// disables recording). Call before serving; not safe mid-flight.
func (s *Sharded) SetStats(st *stats.Stats) {
	s.st = st
	st.EnsureShards(len(s.shards))
}

// NumShards returns the shard count K.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Name identifies the access method in experiment output.
func (s *Sharded) Name() string {
	return fmt.Sprintf("sharded(%dx%d %s)", s.rows, s.cols, "motion-aware("+s.layout.String()+")")
}

// Len returns the number of indexed coefficients across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.tree.Len()
	}
	return n
}

// ShardLens returns the per-shard coefficient counts (observability).
func (s *Sharded) ShardLens() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.tree.Len()
	}
	return out
}

// Search answers the window query by searching every shard whose
// content MBR overlaps the query rectangle, then merging the hits into ascending id order (the Index
// determinism contract — byte-identical to the serial MotionAware
// oracle). The reported I/O is the sum over the searched shards' node
// reads. Search allocates its result fresh; hot callers use SearchInto
// with a retained Cursor instead.
func (s *Sharded) Search(q Query) ([]int64, int64) {
	var cur Cursor
	ids, io := s.SearchInto(q, nil, &cur)
	if len(ids) == 0 {
		return nil, io
	}
	return ids, io
}

// SearchWords is the allocation-free Search in words: the matching ids
// are appended to out as ascending words using the cursor's retained
// scratch (traversal stack, hit buffer, hit set), so a warmed-up search
// performs no allocations. The overlapping shards are searched in turn
// on the calling goroutine: a whole frame's descent is tens of
// microseconds, less than handing it to other goroutines costs, so
// concurrency comes from sessions, not from inside a query. The result
// set, order, and I/O are identical to Search. Safe for any number of
// concurrent callers with distinct cursors and buffers.
func (s *Sharded) SearchWords(q Query, out []Word, cur *Cursor) ([]Word, int64) {
	var io int64
	cur.raw, io = s.searchRaw(q, cur.raw[:0], &cur.rt)
	return cur.hits.words(cur.raw, out), io
}

// SearchInto is SearchWords with the words expanded: the matching ids
// are appended to buf in ascending order, allocation-free once warm.
func (s *Sharded) SearchInto(q Query, buf []int64, cur *Cursor) ([]int64, int64) {
	return searchInto(s, q, buf, cur)
}

// searchRaw appends every overlapping shard's hits to buf in the order
// the shards' R*-trees return them — unordered across and within shards
// — and returns the node I/O spent.
func (s *Sharded) searchRaw(q Query, buf []int64, rt *rtree.Cursor) ([]int64, int64) {
	qr, ok := s.layout.queryRect(q)
	if !ok {
		return buf, 0
	}
	dims := s.layout.Dims()
	var io int64
	for i, sh := range s.shards {
		if !sh.overlaps(&qr, dims) {
			continue
		}
		var sio int64
		buf, sio = sh.tree.SearchInto(qr, rt, buf)
		row := s.st.Shard(i)
		row.Add(stats.ShardSearches, 1)
		row.Add(stats.ShardNodeIO, sio)
		io += sio
	}
	return buf, io
}
