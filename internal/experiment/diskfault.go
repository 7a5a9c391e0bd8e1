package experiment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/faultdisk"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/motion"
	"repro/internal/persist"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/workload"
)

// DiskFaultSpec configures the storage-fault acceptance soak: a
// deterministic city is served twice — once from the in-memory Store
// (the oracle), once from a paged segment layered over a faultdisk
// reader injecting transient I/O errors and torn reads on top of one
// permanently corrupted page — and the faulty server must degrade by
// withholding exactly the unreadable coefficients, never by crashing,
// then converge byte-identically once the page heals. The zero value
// gets quick-scale defaults.
type DiskFaultSpec struct {
	Seed    int64
	Blocks  int // city blocks per side (default 3)
	Lots    int // lots per block side (default 2)
	Levels  int // subdivision depth (default 2)
	Steps   int // tour length per client (default 24)
	Clients int // concurrent seeded tours (default 2)

	// PageSize is the segment page size in bytes (default 4096).
	PageSize int
	// BudgetDivisor sets the page-cache budget to payload/BudgetDivisor
	// (default 4 — small enough to force paging under faults).
	BudgetDivisor int64
	// RetryMax bounds the pager's re-reads per transient fault
	// (default 2).
	RetryMax int

	// DataDir holds the segment file ("" = fresh temp dir, removed
	// afterwards).
	DataDir string
}

func (s DiskFaultSpec) fill() DiskFaultSpec {
	if s.Blocks == 0 {
		s.Blocks = 3
	}
	if s.Lots == 0 {
		s.Lots = 2
	}
	if s.Levels == 0 {
		s.Levels = 2
	}
	if s.Steps == 0 {
		s.Steps = 24
	}
	if s.Clients == 0 {
		s.Clients = 2
	}
	if s.PageSize == 0 {
		s.PageSize = 4096
	}
	if s.BudgetDivisor == 0 {
		s.BudgetDivisor = 4
	}
	if s.RetryMax == 0 {
		s.RetryMax = 2
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

// RunDiskFault runs the storage-fault tolerance soak and prints a
// summary. The experiment fails (as an error) unless:
//
//   - Phase A: with transient faults armed and one page permanently
//     corrupt, every frame on the faulty server still succeeds (the
//     server never exits, nothing panics), the faulty side's cumulative
//     deliveries never exceed the oracle's, and residency stays within
//     the page-cache budget;
//   - a post-tour scrub quarantines exactly the corrupt page and
//     nothing else (healthy pages can suffer transient faults but
//     never quarantine);
//   - Phase B, pre-heal: a wholesale window delivers everything except
//     exactly the corrupt page's coefficients — per object, the faulty
//     count equals the oracle count minus the coefficients resident on
//     the corrupt page, and objects untouched by that page reconstruct
//     byte-identically;
//   - Phase B, post-heal: after clearing the corruption and re-scrubbing
//     (which lifts the quarantine), the same sessions receive exactly
//     the withheld coefficients — every object converges byte-identical
//     to the oracle, and a further wholesale window delivers zero on
//     both sides;
//   - the pager counters reconcile exactly (pins = hits + faults,
//     resident = faults − evictions, zero pinned at rest, exactly one
//     quarantine event, retries and fault errors observed), the
//     serving stats counted the withheld coefficients, and the disk.faults
//     row equals the faults faultdisk injected.
func RunDiskFault(spec DiskFaultSpec, w io.Writer) error {
	spec = spec.fill()

	dir := spec.DataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "diskfault-experiment-")
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
	if err := workload.BuildCitySegment(segPath, wspec, spec.PageSize); err != nil {
		return err
	}

	// Open the segment through the fault injector. It starts quiesced so
	// the open (header/footer reads) and the index build (one clean scan
	// of every page) see a healthy disk; faults arm once serving starts.
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
		Seed: spec.Seed + 7,
		// Transient errors roughly every handful of page reads, torn
		// reads rarer. Bit flips stay off here: a flip landing on the
		// final retry of a healthy page would quarantine it, and this
		// soak pins down quarantine of exactly the corrupt page (the
		// faultdisk unit tests cover flips).
		ErrAfterMin: int64(spec.PageSize), ErrAfterMax: 16 * int64(spec.PageSize),
		TornAfterMin: 8 * int64(spec.PageSize), TornAfterMax: 64 * int64(spec.PageSize),
	})
	fd.Quiesce()

	payload := mem.NumCoeffs() * index.CoeffRecordSize
	budget := payload / spec.BudgetDivisor
	seg, err := persist.NewSegment(fd, fi.Size())
	if err != nil {
		return err
	}
	ps, err := index.NewPagedSegment(seg, index.PagedConfig{
		CacheBytes:   budget,
		RetryMax:     spec.RetryMax,
		RetryBackoff: 50 * time.Microsecond,
	})
	if err != nil {
		return err
	}
	defer ps.Close()

	stMem, stFaulty := stats.New(), stats.New()
	fd.SetStats(stFaulty)
	memB, err := startScene(engine.SceneConfig{Name: proto.DefaultSceneName, Source: mem, Levels: spec.Levels, Stats: stMem})
	if err != nil {
		return err
	}
	defer memB.Stop()
	faultyB, err := startScene(engine.SceneConfig{Name: proto.DefaultSceneName, Source: ps, Levels: ps.Levels(), Stats: stFaulty})
	if err != nil {
		return err
	}
	defer faultyB.Stop()

	// Damage the disk: one page of permanent corruption (a bad sector
	// under the CRC directory) plus the armed transient weather.
	corruptPage := seg.NumPages() / 2
	fd.SetCorrupt(seg.PageOffset(corruptPage), int64(seg.PageSize()))
	fd.Arm()

	// The corrupt page's coefficients, grouped by object — the exact
	// set the faulty side must withhold and later converge on.
	corruptByObject := map[int32]int{}
	for id := int64(0); id < ps.NumCoeffs(); id++ {
		if ps.PageOf(id) == corruptPage {
			corruptByObject[index.MustCoeff(mem, id).Object]++
		}
	}

	space := mem.Bounds().XY()
	tours := motion.Tours(motion.Tram, motion.TourSpec{
		Space: space, Steps: spec.Steps, Speed: 0.25,
	}, spec.Clients, spec.Seed+1)
	side := space.Width() * 0.15

	type pair struct {
		oracle *proto.Client
		faulty *proto.Client
	}
	clients := make([]pair, spec.Clients)
	for i := range clients {
		if clients[i].oracle, err = proto.Dial(memB.Addr(), nil); err != nil {
			return err
		}
		defer clients[i].oracle.Close()
		if clients[i].faulty, err = proto.Dial(faultyB.Addr(), nil); err != nil {
			return err
		}
		defer clients[i].faulty.Close()
	}

	// Phase A: lockstep tours through the weather. Every frame must
	// succeed on both sides; the faulty side may deliver less (withheld
	// coefficients), never more, and must respect the cache budget.
	start := time.Now()
	frames := 0
	oracleCoeffs, faultyCoeffs := int64(0), int64(0)
	for step := 0; step < spec.Steps; step++ {
		for ci := range clients {
			rect := geom.RectAround(tours[ci].Pos[step], side)
			speed := tours[ci].SpeedAt(step)
			no, err := clients[ci].oracle.Frame(rect, speed)
			if err != nil {
				return fmt.Errorf("oracle client %d frame %d: %w", ci, step, err)
			}
			nf, err := clients[ci].faulty.Frame(rect, speed)
			if err != nil {
				return fmt.Errorf("faulty client %d frame %d: %w", ci, step, err)
			}
			frames++
			oracleCoeffs += int64(no)
			faultyCoeffs += int64(nf)
			if faultyCoeffs > oracleCoeffs {
				return fmt.Errorf("client %d frame %d: faulty side delivered %d cumulative coefficients, oracle only %d",
					ci, step, faultyCoeffs, oracleCoeffs)
			}
			if st := ps.PagerStats(); st.ResidentBytes > budget {
				return fmt.Errorf("client %d frame %d: resident payload %d B exceeds budget %d B",
					ci, step, st.ResidentBytes, budget)
			}
		}
	}
	tourTime := time.Since(start)
	stormCounters := fd.Counters()
	if stormCounters.Errs == 0 {
		return fmt.Errorf("experiment: the transient schedule injected no errors over %d frames; densify it", frames)
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

	// Phase B, pre-heal: a wholesale window on every session. The
	// oracle completes its picture; the faulty side must be short by
	// exactly the corrupt page's coefficients.
	preHealWithheld := int64(0)
	for ci := range clients {
		if err := teleport(clients[ci].oracle, space); err != nil {
			return fmt.Errorf("oracle client %d: %w", ci, err)
		}
		if err := teleport(clients[ci].faulty, space); err != nil {
			return fmt.Errorf("faulty client %d: %w", ci, err)
		}
		no, err := clients[ci].oracle.Frame(space, 0)
		if err != nil {
			return fmt.Errorf("oracle client %d wholesale frame: %w", ci, err)
		}
		nf, err := clients[ci].faulty.Frame(space, 0)
		if err != nil {
			return fmt.Errorf("faulty client %d wholesale frame: %w", ci, err)
		}
		preHealWithheld += int64(no - nf)

		oracle, faulty := clients[ci].oracle, clients[ci].faulty
		for obj := int32(0); obj < int32(mem.NumObjects()); obj++ {
			memCount := len(mem.Objects[obj].Coeffs)
			if oracle.CoeffCount(obj) != memCount {
				return fmt.Errorf("client %d object %d: oracle wholesale window delivered %d of %d coefficients",
					ci, obj, oracle.CoeffCount(obj), memCount)
			}
			want := memCount - corruptByObject[obj]
			if faulty.CoeffCount(obj) != want {
				return fmt.Errorf("client %d object %d: faulty side has %d coefficients pre-heal, want %d (%d withheld on page %d)",
					ci, obj, faulty.CoeffCount(obj), want, corruptByObject[obj], corruptPage)
			}
			if corruptByObject[obj] == 0 && !sameObject(oracle, faulty, obj) {
				return fmt.Errorf("client %d object %d: healthy-page mesh not byte-identical under faults", ci, obj)
			}
		}
	}
	if preHealWithheld == 0 {
		return fmt.Errorf("experiment: wholesale window withheld nothing despite a quarantined page")
	}
	if got := stFaulty.Load(stats.RetrievalCoeffsWithheld) + stFaulty.Load(stats.ProtoCoeffsWithheld); got == 0 {
		return fmt.Errorf("experiment: serving stats counted no withheld coefficients")
	}

	// Heal the disk and re-scrub: the quarantine lifts and the withheld
	// coefficients flow to the same sessions — byte-identical
	// convergence, then steady-state silence.
	fd.ClearCorrupt()
	bad, err = ps.VerifyPages()
	if err != nil || len(bad) != 0 {
		return fmt.Errorf("experiment: post-heal scrub = %v, %v, want clean", bad, err)
	}
	healedDelivered := int64(0)
	for ci := range clients {
		if err := teleport(clients[ci].faulty, space); err != nil {
			return fmt.Errorf("faulty client %d post-heal: %w", ci, err)
		}
		nf, err := clients[ci].faulty.Frame(space, 0)
		if err != nil {
			return fmt.Errorf("faulty client %d convergence frame: %w", ci, err)
		}
		healedDelivered += int64(nf)

		if n := diverged(clients[ci].oracle, clients[ci].faulty); n > 0 {
			return fmt.Errorf("client %d: %d objects not byte-identical after heal", ci, n)
		}

		// Steady state: one more wholesale window delivers zero on both
		// sides — nothing was double-delivered, nothing is still owed.
		if err := teleport(clients[ci].oracle, space); err != nil {
			return fmt.Errorf("oracle client %d steady state: %w", ci, err)
		}
		if err := teleport(clients[ci].faulty, space); err != nil {
			return fmt.Errorf("faulty client %d steady state: %w", ci, err)
		}
		no, err := clients[ci].oracle.Frame(space, 0)
		if err != nil {
			return err
		}
		nf, err = clients[ci].faulty.Frame(space, 0)
		if err != nil {
			return err
		}
		if no != 0 || nf != 0 {
			return fmt.Errorf("client %d steady-state window delivered oracle %d / faulty %d, want 0/0", ci, no, nf)
		}
	}
	if healedDelivered != preHealWithheld {
		return fmt.Errorf("experiment: healed sessions received %d coefficients, want exactly the %d withheld",
			healedDelivered, preHealWithheld)
	}

	// Close the faulty clients before reconciling, so no frame is in
	// flight while we require zero pinned pages.
	for ci := range clients {
		clients[ci].faulty.Close()
	}
	st := ps.PagerStats()
	counters := fd.Counters()

	fmt.Fprintf(w, "diskfault: %s · payload %d B in %d pages of %d B · budget %d B (1/%d) · corrupt page %d (%d coefficients)\n",
		wspec, payload, seg.NumPages(), spec.PageSize, budget, spec.BudgetDivisor, corruptPage, seg.RecordsInPage(corruptPage))
	fmt.Fprintf(w, "  storm: %d clients × %d frames in %v · injected %d errors · %d torn · %d corrupt reads\n",
		spec.Clients, spec.Steps, tourTime.Round(time.Millisecond), counters.Errs, counters.Torn, counters.CorruptReads)
	fmt.Fprintf(w, "  paging: %d faults · %d hits · %d retries · %d read errors · %d quarantine event(s) · %d evictions\n",
		st.Faults, st.Hits, st.Retries, st.FaultErrors, st.Quarantined, st.Evictions)
	fmt.Fprintf(w, "  degradation: %d coefficients withheld pre-heal · %d delivered on convergence · oracle %d vs faulty %d over the tours\n",
		preHealWithheld, healedDelivered, oracleCoeffs, faultyCoeffs)

	// Exact reconciliation: the fault plumbing must not bend the
	// pager's accounting identities.
	if err := pagerAtRest(st); err != nil {
		return err
	}
	if st.Quarantined != 1 {
		return fmt.Errorf("experiment: %d quarantine events at rest, want exactly 1", st.Quarantined)
	}
	if got := stFaulty.Load(stats.DiskFaults); got != counters.Total() {
		return fmt.Errorf("experiment: disk.faults %d, faultdisk injected %d", got, counters.Total())
	}
	if st.Retries == 0 || st.FaultErrors == 0 {
		return fmt.Errorf("experiment: retries %d / fault errors %d — the fault path was not exercised",
			st.Retries, st.FaultErrors)
	}
	fmt.Fprintf(w, "  reconciliation OK: pins = hits + faults · resident = faults - evictions · 0 pinned · 1 quarantine\n")
	fmt.Fprintf(w, "  convergence OK: healthy pages byte-identical under faults · withheld set re-delivered exactly once after heal\n")
	return nil
}
