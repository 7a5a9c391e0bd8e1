package experiment

import (
	"math/rand"
	"sort"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/mesh"
	"repro/internal/motion"
	"repro/internal/pmesh"
	"repro/internal/retrieval"
	"repro/internal/rtree"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// Ablations are experiments the paper's design rests on but does not
// plot: the R*-tree choice, the state-estimation predictor, the k = 4
// sector count, the 3D-vs-4D index layout, and the §II wavelet-vs-
// progressive-mesh compactness claim.

// AblIndexVariant compares window-query I/O of the same coefficient set
// indexed three ways: R*-tree built by insertion, Guttman quadratic-split
// tree built by insertion, and the STR bulk-loaded tree the reproduction
// uses. Justifies both the paper's R* choice and our build method.
func AblIndexVariant(cfg Config) *Table {
	h := newHarness(cfg)
	d := h.dataset(h.cfg.Objects/2+1, workload.Uniform)
	items := make([]rtree.Item, 0, d.Store.NumCoeffs())
	for _, obj := range d.Store.Objects {
		for i := range obj.Coeffs {
			c := &obj.Coeffs[i]
			items = append(items, rtree.Item{
				Rect: rtree.FromXYW(c.Support.XY(), c.Value, c.Value),
				Data: d.Store.ID(c.Object, c.Vertex),
			})
		}
	}
	build := map[string]func() *rtree.Tree{
		"r*-insert": func() *rtree.Tree {
			return rtree.InsertLoad(rtree.DefaultConfig(3), items)
		},
		"quadratic": func() *rtree.Tree {
			cfg := rtree.DefaultConfig(3)
			cfg.Variant = rtree.Quadratic
			return rtree.InsertLoad(cfg, items)
		},
		"str-bulk": func() *rtree.Tree {
			return rtree.BulkLoad(rtree.DefaultConfig(3), items)
		},
	}

	t := &Table{ID: "abl-index", Title: "Index build ablation: window-query I/O",
		XLabel: "speed", YLabel: "node reads/query"}
	names := []string{"r*-insert", "quadratic", "str-bulk"}
	side := d.QuerySide(h.cfg.QueryFrac)
	rng := rand.New(rand.NewSource(h.cfg.Seed))
	const numQueries = 60
	centers := make([]geom.Vec2, numQueries)
	for i := range centers {
		centers[i] = geom.V2(rng.Float64()*900+50, rng.Float64()*900+50)
	}
	var cur rtree.Cursor
	var buf []int64
	for _, name := range names {
		tr := build[name]()
		s := Series{Name: name}
		for _, speed := range h.cfg.Speeds {
			w := retrieval.Identity(speed)
			var io int64
			for _, c := range centers {
				q := geom.RectAround(c, side)
				var qio int64
				buf, qio = tr.SearchInto(rtree.FromXYW(q, w, 1), &cur, buf[:0])
				io += qio
			}
			s.X = append(s.X, speed)
			s.Y = append(s.Y, float64(io)/numQueries)
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// AblPredictor compares the RLS/Kalman state estimator against
// constant-velocity extrapolation inside the full prefetching loop — the
// paper's §II critique of linear-movement prefetching, measured on hit
// rate and utilization.
func AblPredictor(cfg Config) *Table {
	h := newHarness(cfg)
	d := h.dataset(h.cfg.Objects, workload.Uniform)
	sys := core.NewSystem(core.Config{Dataset: d, Kind: core.MotionAwareSystem})
	grid := geom.NewGrid(d.Spec.Space, 40, 40)
	side := d.QuerySide(0.05)

	t := &Table{ID: "abl-predictor", Title: "Predictor ablation: RLS vs linear",
		XLabel: "buffer KB", YLabel: "%"}
	estimators := []struct {
		name string
		mk   func() motion.Estimator
	}{
		{"rls", func() motion.Estimator { return motion.NewPredictor(3) }},
		{"linear", func() motion.Estimator { return motion.NewLinearPredictor() }},
	}
	for _, est := range estimators {
		hit := Series{Name: "hit " + est.name}
		util := Series{Name: "util " + est.name}
		for _, size := range h.cfg.Buffers {
			var hs, us []float64
			for _, tour := range h.tourSet(d, motion.Tram, 0.5) {
				fetcher := &blockFetcher{srv: sys.Server(), grid: grid}
				mgr := buffer.NewManager(buffer.Config{
					Grid:      grid,
					Capacity:  size,
					Policy:    buffer.MotionAware,
					Estimator: est.mk(),
				}, fetcher)
				for i, pos := range tour.Pos {
					mgr.Step(pos, geom.RectAround(pos, side), retrieval.Identity(tour.SpeedAt(i)))
				}
				met := mgr.Metrics()
				hs = append(hs, met.HitRate()*100)
				us = append(us, met.Utilization()*100)
			}
			hit.X = append(hit.X, float64(size>>10))
			hit.Y = append(hit.Y, mean(hs))
			util.X = append(util.X, float64(size>>10))
			util.Y = append(util.Y, mean(us))
		}
		t.Series = append(t.Series, hit, util)
	}
	return t
}

// blockFetcher adapts a retrieval server to the buffer manager with
// position-partitioned blocks (the same adapter core uses).
type blockFetcher struct {
	srv  *retrieval.Server
	grid *geom.Grid
}

func (f *blockFetcher) BlockBytes(cell geom.Cell, wmin float64) int64 {
	bytes, _ := f.srv.BlockBytes(f.grid.CellRect(cell), wmin)
	return bytes
}

// AblSectors sweeps the direction count k of the buffer allocation
// (paper Fig. 4 uses k = 4).
func AblSectors(cfg Config) *Table {
	h := newHarness(cfg)
	d := h.dataset(h.cfg.Objects, workload.Uniform)
	sys := core.NewSystem(core.Config{Dataset: d, Kind: core.MotionAwareSystem})
	grid := geom.NewGrid(d.Spec.Space, 40, 40)
	side := d.QuerySide(0.05)
	size := h.cfg.Buffers[len(h.cfg.Buffers)/2]

	t := &Table{ID: "abl-sectors", Title: "Sector count ablation (k directions)",
		XLabel: "k", YLabel: "%"}
	hit := Series{Name: "hit rate"}
	util := Series{Name: "utilization"}
	for _, k := range []int{2, 4, 8} {
		var hs, us []float64
		for _, tour := range h.tourSet(d, motion.Tram, 0.5) {
			fetcher := &blockFetcher{srv: sys.Server(), grid: grid}
			mgr := buffer.NewManager(buffer.Config{
				Grid: grid, Capacity: size, Policy: buffer.MotionAware, K: k,
			}, fetcher)
			for i, pos := range tour.Pos {
				mgr.Step(pos, geom.RectAround(pos, side), retrieval.Identity(tour.SpeedAt(i)))
			}
			met := mgr.Metrics()
			hs = append(hs, met.HitRate()*100)
			us = append(us, met.Utilization()*100)
		}
		hit.X = append(hit.X, float64(k))
		hit.Y = append(hit.Y, mean(hs))
		util.X = append(util.X, float64(k))
		util.Y = append(util.Y, mean(us))
	}
	t.Series = append(t.Series, hit, util)
	return t
}

// AblLayout compares the 3D (x, y, w) index the paper evaluates against
// the 4D (x, y, z, w) index it designs (§VI-B vs §VII-D).
func AblLayout(cfg Config) *Table {
	h := newHarness(cfg)
	d := h.dataset(h.cfg.Objects, workload.Uniform)
	xyw := index.NewMotionAware(d.Store, index.XYW, rtree.Config{})
	xyzw := index.NewMotionAware(d.Store, index.XYZW, rtree.Config{})
	t := &Table{ID: "abl-layout", Title: "Index layout ablation: 3D xyw vs 4D xyzw",
		XLabel: "speed", YLabel: "node reads/query"}
	a := Series{Name: "xyw"}
	b := Series{Name: "xyzw"}
	for _, speed := range h.cfg.Speeds {
		w := retrieval.Identity(speed)
		a.X = append(a.X, speed)
		a.Y = append(a.Y, indexIOPerQuery(h, d, xyw, h.cfg.QueryFrac, w))
		b.X = append(b.X, speed)
		b.Y = append(b.Y, indexIOPerQuery(h, d, xyzw, h.cfg.QueryFrac, w))
	}
	t.Series = append(t.Series, a, b)
	return t
}

// AblCompactness traces transmission bytes against reconstruction error
// for wavelet coefficients (minimal encoding) and progressive-mesh
// vertex splits on the same object — the §II claim that wavelets code
// progressive detail more compactly.
func AblCompactness(cfg Config) *Table {
	h := newHarness(cfg)
	s := mesh.RandomBuilding(rand.New(rand.NewSource(h.cfg.Seed+77)), geom.V2(0, 0),
		mesh.DefaultBuildingSpec())
	levels := 3
	d := wavelet.Decompose(0, mesh.BaseMeshFor(s), s, levels)
	full := d.Final
	pm := pmesh.Decompose(full, 16)

	t := &Table{ID: "abl-compactness",
		Title:  "Progressive transmission: wavelets vs progressive mesh",
		XLabel: "KB sent", YLabel: "chamfer error"}

	// Wavelet trace: coefficients by descending value.
	coeffs := append([]wavelet.Coefficient(nil), d.Coeffs...)
	sort.SliceStable(coeffs, func(i, j int) bool { return coeffs[i].Value > coeffs[j].Value })
	recon := wavelet.NewReconstructor(d.Base, d.Bounds().Center(), d.J)
	wv := Series{Name: "wavelet"}
	step := len(coeffs) / 8
	for i := 0; i < len(coeffs); i++ {
		recon.Apply(coeffs[i])
		if (i+1)%step == 0 || i == len(coeffs)-1 {
			wv.X = append(wv.X, float64((i+1)*wavelet.MinimalWireBytes)/1024)
			wv.Y = append(wv.Y, pmesh.ChamferError(recon.Mesh(), full))
		}
	}

	pmS := Series{Name: "progressive-mesh"}
	for frac := 1; frac <= 8; frac++ {
		k := pm.NumSplits() * frac / 8
		pmS.X = append(pmS.X, float64(pm.WireBytesAt(k))/1024)
		pmS.Y = append(pmS.Y, pmesh.ChamferError(pm.MeshAt(k), full))
	}
	t.Series = append(t.Series, wv, pmS)
	return t
}

// AblationGenerators lists the ablation experiments.
func AblationGenerators() []struct {
	ID  string
	Run func(Config) *Table
} {
	return []struct {
		ID  string
		Run func(Config) *Table
	}{
		{"abl-index", AblIndexVariant},
		{"abl-predictor", AblPredictor},
		{"abl-sectors", AblSectors},
		{"abl-layout", AblLayout},
		{"abl-compactness", AblCompactness},
	}
}
