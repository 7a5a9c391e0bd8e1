package experiment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/faultdisk"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/motion"
	"repro/internal/persist"
	"repro/internal/proto"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/workload"
)

// OutOfCoreSpec configures the out-of-core acceptance soak: one
// deterministic city is served twice — from the in-memory Store (the
// oracle) and from a paged segment read through a fault-injecting disk
// with a page cache an eighth of the payload — and lockstep client
// pairs ride the same sessions through a clean phase and then a
// storage-fault storm. The zero value gets quick-scale defaults.
type OutOfCoreSpec struct {
	Seed    int64
	Steps   int // tour frames per phase (default 40)
	Clients int // client pairs (default 3)
}

// The soak's city and segment: blocks per city side, lots per block
// side, subdivision depth, segment page size (small, so the quick-scale
// city spans hundreds of pages), the payload-to-cache ratio (the
// acceptance floor) and the pager's re-reads per transient fault (below
// the pager's default, so the storm's faults also exhaust retries and
// withhold coefficients transiently).
const (
	oocBlocks        = 4
	oocLots          = 3
	oocLevels        = 2
	oocPageSize      = 4096
	oocBudgetDivisor = 8
	oocRetryMax      = 2
)

func (s OutOfCoreSpec) fill() OutOfCoreSpec {
	if s.Steps == 0 {
		s.Steps = 40
	}
	if s.Clients == 0 {
		s.Clients = 3
	}
	return s
}

// teleport resets a wire client's planner to a wholesale window: a
// frame over a rect disjoint from everything (outside the scene space)
// makes the next Frame plan the full [w, 1] band over its whole rect
// (Algorithm 1's empty-overlap fallback). The teleport frame itself
// must deliver nothing.
func teleport(c *proto.Client, space geom.Rect2) error {
	away := geom.R2(space.Max.X+1000, space.Max.Y+1000, space.Max.X+1010, space.Max.Y+1010)
	n, err := c.Frame(away, 0)
	if err != nil {
		return err
	}
	if n != 0 {
		return fmt.Errorf("teleport frame outside the space delivered %d coefficients", n)
	}
	return nil
}

// wholesale asks c for every coefficient of the space it does not hold
// yet: a teleport, then the whole space at full resolution.
func wholesale(c *proto.Client, space geom.Rect2) (int, error) {
	if err := teleport(c, space); err != nil {
		return 0, err
	}
	return c.Frame(space, 0)
}

// oocPair is one client riding both servers: the oracle on the
// in-memory scene, paged on the segment behind the faulty disk, and
// shadow, an in-process session on the in-memory scene's retrieval
// server replaying the clean-phase frames, so the harness knows
// exactly which coefficients the pair holds.
type oocPair struct {
	oracle, paged *proto.Client
	shadow        *retrieval.Client
}

// RunOutOfCore runs the out-of-core acceptance soak and prints a
// summary. The experiment fails (as an error) unless:
//
//   - the city's payload is at least 8× the page-cache budget, so the
//     working set truly cannot fit;
//   - clean phase (the disk healthy): every frame delivers the same
//     coefficient count from both scenes, and every pair's
//     reconstructions are byte-identical;
//   - storm (transient I/O errors and torn reads armed, plus one
//     permanently corrupt page no session holds a record of, evicted
//     from the cache): every frame on the paged side still succeeds,
//     its cumulative deliveries never exceed the oracle's, the
//     transient schedule injected at least one error, and the serving
//     path read the corrupt page;
//   - residency stays within the budget after every frame of both;
//   - a scrub quarantines exactly the corrupt page;
//   - pre-heal: a wholesale window leaves every pair short of exactly
//     the corrupt page's records, per object, and objects with no
//     record there reconstruct byte-identically;
//   - heal: once the corruption clears and a scrub lifts the
//     quarantine, the same sessions receive exactly the withheld
//     records, every object converges byte-identically, and a further
//     wholesale window delivers nothing on either side;
//   - the paging counters reconcile exactly at rest (pins = hits +
//     faults, resident = faults − evictions, nothing pinned, within
//     budget), paging happened (faults ≥ segment pages, evictions > 0),
//     exactly one quarantine event, retries and read errors observed,
//     the serving stats counted withheld coefficients, and disk.faults
//     equals the faults faultdisk injected.
func RunOutOfCore(spec OutOfCoreSpec, w io.Writer) error {
	spec = spec.fill()
	dir, cleanup, err := dataDir("", "outofcore-experiment-")
	if err != nil {
		return err
	}
	defer cleanup()

	wspec := workload.CitySpec{
		BlocksX: oocBlocks, BlocksY: oocBlocks,
		LotsPerBlock: oocLots, Levels: oocLevels, Seed: spec.Seed,
	}
	mem := workload.GenerateCity(wspec)
	segPath := filepath.Join(dir, "city.seg")
	buildStart := time.Now()
	if err := workload.BuildCitySegment(segPath, wspec, oocPageSize); err != nil {
		return err
	}
	buildTime := time.Since(buildStart)

	payload := mem.NumCoeffs() * index.CoeffRecordSize
	budget := payload / oocBudgetDivisor
	if budget < 4*oocPageSize {
		return fmt.Errorf("experiment: budget %d B spans fewer than 4 pages; grow the city", budget)
	}

	// Open the segment through the fault injector. It starts quiesced, so
	// the open and the index build (one scan of every page) and the clean
	// phase see a healthy disk. Bit flips stay off: a flip landing on the
	// final retry of a healthy page would quarantine it, and this soak
	// pins down quarantine of exactly the corrupt page (the faultdisk
	// unit tests cover flips).
	f, err := os.Open(segPath)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	fd := faultdisk.New(f, faultdisk.Config{
		Seed:        spec.Seed + 7,
		ErrAfterMin: oocPageSize, ErrAfterMax: 16 * oocPageSize,
		TornAfterMin: 8 * oocPageSize, TornAfterMax: 64 * oocPageSize,
	})
	fd.Quiesce()
	seg, err := persist.NewSegment(fd, fi.Size())
	if err != nil {
		return err
	}
	ps, err := index.NewPagedSegment(seg, index.PagedConfig{
		CacheBytes:   budget,
		RetryMax:     oocRetryMax,
		RetryBackoff: 50 * time.Microsecond,
	})
	if err != nil {
		return err
	}
	defer ps.Close()
	if ps.NumCoeffs() != mem.NumCoeffs() || ps.NumObjects() != mem.NumObjects() ||
		ps.BaseVerts() != mem.BaseVerts() || ps.Bounds() != mem.Bounds() {
		return fmt.Errorf("experiment: paged store shape differs from the generated city")
	}

	stMem, stPaged := stats.New(), stats.New()
	fd.SetStats(stPaged)
	memB, err := startScene(engine.SceneConfig{Name: proto.DefaultSceneName, Source: mem, Levels: oocLevels, Stats: stMem})
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
		Space: space, Steps: 2 * spec.Steps, Speed: 0.25,
	}, spec.Clients, spec.Seed+1)
	side := space.Width() * 0.15
	shadowSrv := memB.Registry().Default().Server
	pairs := make([]oocPair, spec.Clients)
	for i := range pairs {
		p := &pairs[i]
		if p.oracle, err = proto.Dial(memB.Addr(), nil); err != nil {
			return err
		}
		defer p.oracle.Close()
		if p.paged, err = proto.Dial(pagedB.Addr(), nil); err != nil {
			return err
		}
		defer p.paged.Close()
		p.shadow = retrieval.NewClient(retrieval.NewSession(shadowSrv), nil)
	}

	// frame serves one frame to both sides of pair ci and checks
	// residency after it, when no frame pins are held.
	residentPeak := int64(0)
	frame := func(ci int, q geom.Rect2, speed float64) (no, np int, err error) {
		if no, err = pairs[ci].oracle.Frame(q, speed); err != nil {
			return 0, 0, fmt.Errorf("oracle client %d: %w", ci, err)
		}
		if np, err = pairs[ci].paged.Frame(q, speed); err != nil {
			return 0, 0, fmt.Errorf("paged client %d: %w", ci, err)
		}
		st := ps.PagerStats()
		residentPeak = max(residentPeak, st.ResidentBytes)
		if st.ResidentBytes > budget {
			return 0, 0, fmt.Errorf("client %d: resident payload %d B exceeds budget %d B", ci, st.ResidentBytes, budget)
		}
		return no, np, nil
	}

	// Clean phase: lockstep tours, every frame identical on both sides.
	start := time.Now()
	cleanCoeffs := int64(0)
	for step := 0; step < spec.Steps; step++ {
		for ci := range pairs {
			q, speed := geom.RectAround(tours[ci].Pos[step], side), tours[ci].SpeedAt(step)
			no, np, err := frame(ci, q, speed)
			if err != nil {
				return fmt.Errorf("clean frame %d: %w", step, err)
			}
			if no != np {
				return fmt.Errorf("client %d clean frame %d: paged delivered %d coefficients, oracle %d", ci, step, np, no)
			}
			pairs[ci].shadow.Frame(q, speed)
			cleanCoeffs += int64(np)
		}
	}
	cleanTime := time.Since(start)
	retrieved := 0
	for ci, p := range pairs {
		if len(p.oracle.Objects()) == 0 {
			return fmt.Errorf("experiment: client %d retrieved no objects; enlarge the tour or city", ci)
		}
		retrieved += len(p.oracle.Objects())
		if len(p.oracle.Objects()) != len(p.paged.Objects()) {
			return fmt.Errorf("client %d: paged saw %d objects, oracle %d", ci, len(p.paged.Objects()), len(p.oracle.Objects()))
		}
		if n := diverged(p.oracle, p.paged); n > 0 {
			return fmt.Errorf("client %d: %d paged reconstructions not byte-identical", ci, n)
		}
		if got := int64(p.shadow.Session().Delivered()); got != p.oracle.Coefficients {
			return fmt.Errorf("client %d: shadow session holds %d coefficients, oracle received %d", ci, got, p.oracle.Coefficients)
		}
	}

	// Damage the disk: one bad sector under the first page none of the
	// sessions holds a record of, so the pre-heal check below knows
	// exactly what each must lack. A resident copy would be served
	// clean, so the storm starts from a cold cache: touching every other
	// page once makes the LRU evict the corrupt page before any of them
	// (together they hold nearly eight budgets' worth).
	held := make([]bool, seg.NumPages())
	for id := int64(0); id < ps.NumCoeffs(); id++ {
		for _, p := range pairs {
			if p.shadow.Session().Has(id) {
				held[ps.PageOf(id)] = true
			}
		}
	}
	corruptPage := slices.Index(held, false)
	if corruptPage < 0 {
		return fmt.Errorf("experiment: the clean phase delivered a record of every page; grow the city")
	}
	touched := make([]bool, seg.NumPages())
	touched[corruptPage] = true
	corruptByObject := map[int32]int{}
	for id := int64(0); id < ps.NumCoeffs(); id++ {
		switch pg := ps.PageOf(id); {
		case pg == corruptPage:
			corruptByObject[index.MustCoeff(mem, id).Object]++
		case !touched[pg]:
			touched[pg] = true
			if _, err := ps.Coeff(id); err != nil {
				return fmt.Errorf("experiment: cooling the cache: %w", err)
			}
		}
	}
	fd.SetCorrupt(seg.PageOffset(corruptPage), int64(seg.PageSize()))
	fd.Arm()

	// Storm: the tours go on through the weather, then every pair asks
	// for the whole city, which reads every page a session still lacks —
	// the corrupt one included. The paged side may deliver less
	// (withheld coefficients), never more.
	start = time.Now()
	oracleCoeffs, pagedCoeffs := int64(0), int64(0)
	stormFrame := func(ci, step int, q geom.Rect2, speed float64) error {
		no, np, err := frame(ci, q, speed)
		if err != nil {
			return fmt.Errorf("storm frame %d: %w", step, err)
		}
		oracleCoeffs += int64(no)
		pagedCoeffs += int64(np)
		if pagedCoeffs > oracleCoeffs {
			return fmt.Errorf("client %d storm frame %d: paged side delivered %d cumulative coefficients, oracle only %d",
				ci, step, pagedCoeffs, oracleCoeffs)
		}
		return nil
	}
	for step := spec.Steps; step < 2*spec.Steps; step++ {
		for ci := range pairs {
			if err := stormFrame(ci, step, geom.RectAround(tours[ci].Pos[step], side), tours[ci].SpeedAt(step)); err != nil {
				return err
			}
		}
	}
	for ci, p := range pairs {
		if err := teleport(p.oracle, space); err != nil {
			return fmt.Errorf("oracle client %d: %w", ci, err)
		}
		if err := teleport(p.paged, space); err != nil {
			return fmt.Errorf("paged client %d: %w", ci, err)
		}
		if err := stormFrame(ci, 2*spec.Steps, space, 0); err != nil {
			return err
		}
	}
	stormTime := time.Since(start)
	storm := fd.Counters()
	if storm.Errs == 0 {
		return fmt.Errorf("experiment: the transient schedule injected no errors during the storm")
	}
	if storm.CorruptReads == 0 {
		return fmt.Errorf("experiment: the storm never read corrupt page %d from disk", corruptPage)
	}

	// The weather clears; the bad sector remains. A scrub must
	// quarantine exactly the corrupt page.
	fd.Quiesce()
	bad, err := ps.VerifyPages()
	if err != nil {
		return fmt.Errorf("experiment: post-storm scrub: %w", err)
	}
	if len(bad) != 1 || bad[0] != corruptPage {
		return fmt.Errorf("experiment: scrub quarantined pages %v, want exactly [%d]", bad, corruptPage)
	}
	if st := ps.PagerStats(); st.Quarantined != 1 {
		return fmt.Errorf("experiment: %d quarantine events, want exactly 1 (healthy pages must never quarantine)", st.Quarantined)
	}

	// Pre-heal: a wholesale window on every session re-asks what the
	// storm withheld transiently. The oracle has the whole city; the
	// paged side must lack exactly the corrupt page's records.
	withheld := int64(0)
	for ci, p := range pairs {
		if _, err := wholesale(p.oracle, space); err != nil {
			return fmt.Errorf("oracle client %d pre-heal: %w", ci, err)
		}
		if _, err := wholesale(p.paged, space); err != nil {
			return fmt.Errorf("paged client %d pre-heal: %w", ci, err)
		}
		for obj := int32(0); obj < int32(mem.NumObjects()); obj++ {
			memCount := len(mem.Objects[obj].Coeffs)
			if p.oracle.CoeffCount(obj) != memCount {
				return fmt.Errorf("client %d object %d: oracle holds %d of %d coefficients after a wholesale window",
					ci, obj, p.oracle.CoeffCount(obj), memCount)
			}
			want := memCount - corruptByObject[obj]
			if p.paged.CoeffCount(obj) != want {
				return fmt.Errorf("client %d object %d: paged side has %d coefficients pre-heal, want %d (%d withheld on page %d)",
					ci, obj, p.paged.CoeffCount(obj), want, corruptByObject[obj], corruptPage)
			}
			if corruptByObject[obj] == 0 && !sameObject(p.oracle, p.paged, obj) {
				return fmt.Errorf("client %d object %d: healthy-page mesh not byte-identical under faults", ci, obj)
			}
		}
		withheld += int64(seg.RecordsInPage(corruptPage))
	}
	if got := stPaged.Load(stats.RetrievalCoeffsWithheld) + stPaged.Load(stats.ProtoCoeffsWithheld); got == 0 {
		return fmt.Errorf("experiment: serving stats counted no withheld coefficients")
	}

	// Heal the disk and re-scrub: the quarantine lifts and the withheld
	// records flow to the same sessions — byte-identical convergence,
	// then steady-state silence.
	fd.ClearCorrupt()
	bad, err = ps.VerifyPages()
	if err != nil || len(bad) != 0 {
		return fmt.Errorf("experiment: post-heal scrub = %v, %v, want clean", bad, err)
	}
	healed := int64(0)
	for ci, p := range pairs {
		np, err := wholesale(p.paged, space)
		if err != nil {
			return fmt.Errorf("paged client %d convergence: %w", ci, err)
		}
		healed += int64(np)
		if n := diverged(p.oracle, p.paged); n > 0 {
			return fmt.Errorf("client %d: %d objects not byte-identical after heal", ci, n)
		}
		// Steady state: nothing was double-delivered, nothing is still
		// owed.
		no, err := wholesale(p.oracle, space)
		if err != nil {
			return fmt.Errorf("oracle client %d steady state: %w", ci, err)
		}
		if np, err = wholesale(p.paged, space); err != nil {
			return fmt.Errorf("paged client %d steady state: %w", ci, err)
		}
		if no != 0 || np != 0 {
			return fmt.Errorf("client %d steady-state window delivered oracle %d / paged %d, want 0/0", ci, no, np)
		}
	}
	if healed != withheld {
		return fmt.Errorf("experiment: healed sessions received %d coefficients, want exactly the %d withheld", healed, withheld)
	}

	// Close the paged clients before reconciling, so no frame is in
	// flight while we require zero pinned pages.
	for _, p := range pairs {
		p.paged.Close()
	}
	st := ps.PagerStats()
	counters := fd.Counters()
	pages := int64(seg.NumPages())

	fmt.Fprintf(w, "outofcore: %s · payload %d B in %d pages of %d B · budget %d B (1/%d) · corrupt page %d (%d coefficients)\n",
		wspec, payload, pages, oocPageSize, budget, oocBudgetDivisor, corruptPage, seg.RecordsInPage(corruptPage))
	fmt.Fprintf(w, "  clean: segment build %v · %d clients × %d frames in %v · %d coefficients · %d objects retrieved\n",
		buildTime.Round(time.Millisecond), spec.Clients, spec.Steps, cleanTime.Round(time.Millisecond), cleanCoeffs, retrieved)
	fmt.Fprintf(w, "  storm: %d clients × %d frames + a wholesale window in %v · injected %d errors · %d torn · %d corrupt reads · oracle %d vs paged %d coefficients\n",
		spec.Clients, spec.Steps, stormTime.Round(time.Millisecond), storm.Errs, storm.Torn, storm.CorruptReads, oracleCoeffs, pagedCoeffs)
	fmt.Fprintf(w, "  paging: %d faults · %d hits · %d evictions · %d retries · %d read errors · %d quarantine event(s) · resident peak %d B / end %d B\n",
		st.Faults, st.Hits, st.Evictions, st.Retries, st.FaultErrors, st.Quarantined, residentPeak, st.ResidentBytes)
	fmt.Fprintf(w, "  degradation: %d coefficients withheld pre-heal · %d delivered on convergence\n", withheld, healed)

	// Exact reconciliation: the fault plumbing must not bend the pager's
	// accounting identities.
	if err := pagerAtRest(st); err != nil {
		return err
	}
	if st.Faults < pages {
		return fmt.Errorf("experiment: %d faults over a %d-page segment; the index build alone touches every page", st.Faults, pages)
	}
	if st.Evictions == 0 {
		return fmt.Errorf("experiment: no evictions despite payload %d× the budget", oocBudgetDivisor)
	}
	if st.ResidentBytes > budget {
		return fmt.Errorf("experiment: resident payload %d B above budget %d B at rest", st.ResidentBytes, budget)
	}
	if st.Quarantined != 1 {
		return fmt.Errorf("experiment: %d quarantine events at rest, want exactly 1", st.Quarantined)
	}
	if got := stPaged.Load(stats.DiskFaults); got != counters.Total() {
		return fmt.Errorf("experiment: disk.faults %d, faultdisk injected %d", got, counters.Total())
	}
	if st.Retries == 0 || st.FaultErrors == 0 {
		return fmt.Errorf("experiment: retries %d / read errors %d — the fault path was not exercised", st.Retries, st.FaultErrors)
	}
	fmt.Fprintf(w, "  reconciliation OK: pins = hits + faults · resident = faults - evictions · 0 pinned · within budget · 1 quarantine\n")
	fmt.Fprintf(w, "  byte-identity OK: all %d objects the clean tours retrieved identical to the in-memory oracle\n", retrieved)
	fmt.Fprintf(w, "  convergence OK: healthy pages byte-identical under faults · withheld records re-delivered exactly once after heal\n")
	return nil
}
