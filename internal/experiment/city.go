package experiment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/motion"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CitySpec configures the out-of-core acceptance soak: a deterministic
// city is served twice — once from the in-memory Store, once from a
// paged segment whose cache budget is a small fraction of the payload —
// and seeded multi-client tours against both must be byte-identical,
// with the paged side's residency staying within budget and its paging
// counters reconciling exactly. The zero value gets quick-scale
// defaults.
type CitySpec struct {
	Seed    int64
	Blocks  int // city blocks per side (default 4)
	Lots    int // lots per block side (default 3)
	Levels  int // subdivision depth (default 2)
	Steps   int // tour length per client (default 40)
	Clients int // concurrent seeded tours (default 3)

	// PageSize is the segment page size in bytes (default 4096 — small,
	// so the quick-scale city still spans hundreds of pages).
	PageSize int
	// BudgetDivisor sets the page-cache budget to payload/BudgetDivisor
	// (default 8, the acceptance floor).
	BudgetDivisor int64

	// DataDir holds the segment file ("" = fresh temp dir, removed
	// afterwards).
	DataDir string
}

func (s CitySpec) fill() CitySpec {
	if s.Blocks == 0 {
		s.Blocks = 4
	}
	if s.Lots == 0 {
		s.Lots = 3
	}
	if s.Levels == 0 {
		s.Levels = 2
	}
	if s.Steps == 0 {
		s.Steps = 40
	}
	if s.Clients == 0 {
		s.Clients = 3
	}
	if s.PageSize == 0 {
		s.PageSize = 4096
	}
	if s.BudgetDivisor == 0 {
		s.BudgetDivisor = 8
	}
	return s
}

// RunCity runs the out-of-core acceptance soak and prints a summary.
// The experiment fails (as an error) unless:
//
//   - the city's coefficient payload is at least BudgetDivisor × the
//     page-cache budget (i.e. the working set truly cannot fit),
//   - every client's per-frame coefficient counts and final
//     reconstructions are byte-identical between the paged scene and
//     the in-memory oracle scene,
//   - resident payload bytes never exceed the budget at any sampled
//     point (after every frame),
//   - the paging counters reconcile exactly: pins = hits + faults,
//     resident pages = faults − evictions, and zero pages remain
//     pinned once the tours end, and
//   - paging actually happened (faults ≥ segment pages, evictions > 0).
func RunCity(spec CitySpec, w io.Writer) error {
	spec = spec.fill()

	dir := spec.DataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "city-experiment-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	wspec := workload.CitySpec{
		BlocksX: spec.Blocks, BlocksY: spec.Blocks,
		LotsPerBlock: spec.Lots, Levels: spec.Levels, Seed: spec.Seed,
	}
	mem := workload.GenerateCity(wspec)
	segPath := filepath.Join(dir, "city.seg")
	buildStart := time.Now()
	if err := workload.BuildCitySegment(segPath, wspec, spec.PageSize); err != nil {
		return err
	}
	buildTime := time.Since(buildStart)

	payload := mem.NumCoeffs() * index.CoeffRecordSize
	budget := payload / spec.BudgetDivisor
	if payload < spec.BudgetDivisor*budget {
		return fmt.Errorf("experiment: payload %d B below %d× budget %d B", payload, spec.BudgetDivisor, budget)
	}
	if budget < 4*int64(spec.PageSize) {
		return fmt.Errorf("experiment: budget %d B spans fewer than 4 pages; grow the city or shrink pages", budget)
	}
	ps, err := index.OpenPaged(segPath, index.PagedConfig{CacheBytes: budget})
	if err != nil {
		return err
	}
	defer ps.Close()
	if ps.NumCoeffs() != mem.NumCoeffs() || ps.NumObjects() != mem.NumObjects() ||
		ps.BaseVerts() != mem.BaseVerts() || ps.Bounds() != mem.Bounds() {
		return fmt.Errorf("experiment: paged store shape differs from the generated city")
	}

	stMem, stPaged := stats.New(), stats.New()
	memB, err := startScene(engine.SceneConfig{Name: proto.DefaultSceneName, Source: mem, Levels: spec.Levels, Stats: stMem})
	if err != nil {
		return err
	}
	defer memB.Stop()
	// Building the paged scene's index scans every page once; those
	// faults (and the evictions the budget forces) are part of the
	// reconciliation below.
	pagedB, err := startScene(engine.SceneConfig{Name: proto.DefaultSceneName, Source: ps, Levels: ps.Levels(), Stats: stPaged})
	if err != nil {
		return err
	}
	defer pagedB.Stop()

	space := mem.Bounds().XY()
	tours := motion.Tours(motion.Tram, motion.TourSpec{
		Space: space, Steps: spec.Steps, Speed: 0.25,
	}, spec.Clients, spec.Seed+1)
	side := space.Width() * 0.15

	type pair struct {
		oracle *proto.Client
		paged  *proto.Client
	}
	clients := make([]pair, spec.Clients)
	for i := range clients {
		if clients[i].oracle, err = proto.Dial(memB.Addr(), nil); err != nil {
			return err
		}
		defer clients[i].oracle.Close()
		if clients[i].paged, err = proto.Dial(pagedB.Addr(), nil); err != nil {
			return err
		}
		defer clients[i].paged.Close()
	}

	// Lockstep tours: every client advances one frame per step, each
	// frame served by both stores and compared. Residency is sampled
	// after every paged frame, when no frame pins are held.
	start := time.Now()
	frames, coeffs := 0, int64(0)
	residentPeak := int64(0)
	for step := 0; step < spec.Steps; step++ {
		for ci := range clients {
			rect := geom.RectAround(tours[ci].Pos[step], side)
			speed := tours[ci].SpeedAt(step)
			no, err := clients[ci].oracle.Frame(rect, speed)
			if err != nil {
				return fmt.Errorf("oracle client %d frame %d: %w", ci, step, err)
			}
			np, err := clients[ci].paged.Frame(rect, speed)
			if err != nil {
				return fmt.Errorf("paged client %d frame %d: %w", ci, step, err)
			}
			if no != np {
				return fmt.Errorf("client %d frame %d: paged delivered %d coefficients, oracle %d",
					ci, step, np, no)
			}
			frames++
			coeffs += int64(np)
			st := ps.PagerStats()
			if st.ResidentBytes > residentPeak {
				residentPeak = st.ResidentBytes
			}
			if st.ResidentBytes > budget {
				return fmt.Errorf("client %d frame %d: resident payload %d B exceeds budget %d B",
					ci, step, st.ResidentBytes, budget)
			}
		}
	}
	elapsed := time.Since(start)

	// Byte-identical reconstructions, per client.
	retrieved := 0
	for ci := range clients {
		oracle, paged := clients[ci].oracle, clients[ci].paged
		if len(oracle.Objects()) == 0 {
			return fmt.Errorf("experiment: client %d retrieved no objects; enlarge the tour or city", ci)
		}
		retrieved += len(oracle.Objects())
		if len(oracle.Objects()) != len(paged.Objects()) {
			return fmt.Errorf("client %d: paged saw %d objects, oracle %d",
				ci, len(paged.Objects()), len(oracle.Objects()))
		}
		if n := diverged(oracle, paged); n > 0 {
			return fmt.Errorf("client %d: %d paged reconstructions not byte-identical", ci, n)
		}
	}

	// Close the paged clients before reconciling, so no frame is in
	// flight while we require zero pinned pages.
	for ci := range clients {
		clients[ci].paged.Close()
	}
	st := ps.PagerStats()
	pages := int64(ps.Segment().NumPages())

	fmt.Fprintf(w, "city: %s · payload %d B in %d pages of %d B · budget %d B (1/%d)\n",
		wspec, payload, pages, spec.PageSize, budget, spec.BudgetDivisor)
	fmt.Fprintf(w, "  segment build %v · %d clients × %d frames = %d frames in %v · %d coefficients · %d objects retrieved\n",
		buildTime.Round(time.Millisecond), spec.Clients, spec.Steps, frames, elapsed.Round(time.Millisecond), coeffs, retrieved)
	fmt.Fprintf(w, "  paging: %d faults · %d hits · %d evictions · resident peak %d B / end %d B · pinned %d\n",
		st.Faults, st.Hits, st.Evictions, residentPeak, st.ResidentBytes, st.PagesPinned)

	// Exact reconciliation.
	if err := pagerAtRest(st); err != nil {
		return err
	}
	if st.Faults < pages {
		return fmt.Errorf("experiment: %d faults over a %d-page segment; the index build alone touches every page",
			st.Faults, pages)
	}
	if st.Evictions == 0 {
		return fmt.Errorf("experiment: no evictions despite payload %d× the budget", spec.BudgetDivisor)
	}
	if st.ResidentBytes > budget {
		return fmt.Errorf("experiment: resident payload %d B above budget %d B at rest", st.ResidentBytes, budget)
	}
	fmt.Fprintf(w, "  reconciliation OK: pins = hits + faults · resident = faults - evictions · 0 pinned · within budget\n")
	fmt.Fprintf(w, "  byte-identity OK: all %d retrieved objects identical to the in-memory oracle\n", retrieved)
	return nil
}
