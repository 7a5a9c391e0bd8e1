// Command bench is the repo's one end-to-end benchmark: a seeded city
// served over loopback TCP by the stack cmd/server wires, driven closed-
// loop by two touring clients, every answer checked against a serial
// in-memory oracle. See README.md for the metrics, the workloads and how
// they interact.
//
// Usage (from the repo root):
//
//	bash bench/run.sh [-seed 1] [-seconds 20] [-repeat 1]
//	bash bench/run.sh -workload tram.mem -seed 1 -seconds 20 -trace 0
//
// Without -workload every workload runs, first untraced for the end-to-
// end metrics, then traced for the per-layer ones, and one table is
// printed. With -workload one run is made and its last output line is the
// JSON result BENCHMARK.json's contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/index"
	"repro/internal/workload"
)

// metricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change is a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd and perLayer are the benchmark's metrics; BENCHMARK.json
// repeats them and a test keeps the two in step.
//
// The three timing bounds are as wide as the contract allows because the
// box they were fixed on is: with one seed its runs repeat within 2 %,
// but between one half hour and the next every timing drifts together by
// up to 20 % (README.md has the record). wire_bytes_per_frame is a count
// and varies only with which trips the seed draws.
var endToEnd = []metricDef{
	{"frames_per_s", "1/s", "higher", 0.25},
	{"frame_p50_us", "us", "lower", 0.25},
	{"frame_p99_us", "us", "lower", 0.25},
	{"wire_bytes_per_frame", "B", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "retrieval.plan_us", Unit: "us", Better: "lower"},
	{Name: "index.search_us", Unit: "us", Better: "lower"},
	{Name: "index.node_io", Unit: "count", Better: "lower"},
	{Name: "retrieval.execute_us", Unit: "us", Better: "lower"},
	{Name: "hotcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "hotcache.payload_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "coalescer.shared_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.fetch_us", Unit: "us", Better: "lower"},
	{Name: "pager.fault_ratio", Unit: "ratio", Better: "lower"},
	{Name: "pager.evictions", Unit: "count", Better: "lower"},
	{Name: "proto.encode_us", Unit: "us", Better: "lower"},
	{Name: "proto.decode_us", Unit: "us", Better: "lower"},
	{Name: "wavelet.apply_us", Unit: "us", Better: "lower"},
	{Name: "proto.dial_us", Unit: "us", Better: "lower"},
	{Name: "wire.gap_us", Unit: "us", Better: "lower"},
}

// defaultSeconds is the timed phase's length, BENCHMARK.json's
// run_seconds.
const defaultSeconds = 20

// runResult is one run of one workload.
type runResult struct {
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"`
	// Printed but not gated: the same three over the whole timed phase
	// instead of as medians of its windows, and the far tail.
	WholeFramesPerS float64 `json:"whole_frames_per_s"`
	WholeP50us      float64 `json:"whole_frame_p50_us"`
	WholeP99us      float64 `json:"whole_frame_p99_us"`
	FrameP999us     float64 `json:"frame_p99.9_us"`
	FrameMeanus     float64 `json:"frame_mean_us"`
	Samples         int     `json:"latency_samples"`
	TimedS          float64 `json:"timed_phase_s"`
	Trips           int     `json:"trips_per_client"`
	WarmTrips       int     `json:"warmup_trips_per_client"`
	PoolFrames      int     `json:"pool_frames_per_client"`
	Digest          string  `json:"oracle_digest"`
	PrepS           float64 `json:"trips_and_oracle_s"`
	Ops             int     `json:"ops"`
	FailedOps       int     `json:"failed_ops"`
	FirstError      string  `json:"first_error,omitempty"`
	// Traced runs only: the ladder's size and the pager's view of it.
	LadderFrames  int   `json:"ladder_frames,omitempty"`
	PagerFaults   int64 `json:"pager_faults,omitempty"`
	PagerResident int64 `json:"pager_resident_pages,omitempty"`
	spans         [numClients][]span
}

func us(ns float64) float64 { return ns / 1e3 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runWorkload makes one run: trips and oracle answers from the seed, set-
// up, the closed-loop TCP phase, and with trace set the layer ladder.
func runWorkload(store *index.Store, orc *oracle, def *workloadDef, seed int64, dur time.Duration, trace bool, outDir string) (runResult, error) {
	res := runResult{Workload: def.Name, Trace: trace, Metrics: make(map[string]float64)}
	p0 := time.Now()
	trips := buildTrips(def, seed, store.Bounds().XY())
	want := orc.replayAll(trips, def.Warm)
	res.Digest = tripsDigest(trips, want)
	res.PrepS = time.Since(p0).Seconds()
	res.Trips, res.WarmTrips = def.Pool, def.Warm
	for _, t := range trips[0] {
		res.PoolFrames += len(t)
	}

	st, setupS, err := setUp(store, def.Paged, outDir)
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", def.Name, err)
	}
	load := runLoad(st.addr, trips, want, def.Warm, dur)
	res.Ops, res.FailedOps = load.attempted, load.failed
	if load.firstErr != nil {
		res.FirstError = load.firstErr.Error()
	}
	res.Samples = len(load.lat)
	res.TimedS = load.wall.Seconds()
	res.FrameMeanus = us(mean(load.lat))
	res.FrameP999us = us(float64(percentile(load.lat, 99.9)))
	res.WholeFramesPerS = float64(load.frames) / load.wall.Seconds()
	res.WholeP50us = us(float64(percentile(load.lat, 50)))
	res.WholeP99us = us(float64(percentile(load.lat, 99)))

	if !trace {
		res.Metrics["frames_per_s"] = load.framesPerS
		res.Metrics["frame_p50_us"] = us(load.p50)
		res.Metrics["frame_p99_us"] = us(load.p99)
		res.Metrics["wire_bytes_per_frame"] = float64(load.wireBytes) / float64(load.frames)
		res.Metrics["setup_s"] = setupS
		return res, st.close()
	}

	pg0 := st.pagerStats()
	lad := runLadder(def.Name, st, trips, want, def.Ladder)
	pg1 := st.pagerStats()
	res.Ops += lad.frames
	res.FailedOps += lad.failed
	if res.FirstError == "" && lad.firstErr != nil {
		res.FirstError = lad.firstErr.Error()
	}
	res.LadderFrames = lad.frames
	res.PagerFaults, res.PagerResident = pg1.Faults-pg0.Faults, pg1.PagesResident
	perFrame := func(layer string) float64 { return us(float64(lad.self[layer]) / float64(lad.frames)) }
	m := res.Metrics
	m["retrieval.plan_us"] = perFrame(layerPlan)
	m["index.search_us"] = perFrame(layerSearch)
	m["index.node_io"] = float64(lad.nodeIO) / float64(lad.frames)
	m["retrieval.execute_us"] = perFrame(layerExecute)
	m["hotcache.hit_ratio"] = ratio(lad.hotHits, lad.hotHits+lad.hotMisses)
	m["hotcache.payload_hit_ratio"] = ratio(int64(lad.replayed), int64(lad.wholesale))
	m["coalescer.shared_ratio"] = ratio(lad.coShared, lad.coRouted)
	m["store.fetch_us"] = perFrame(layerFetch)
	m["pager.fault_ratio"] = ratio(pg1.Faults-pg0.Faults, pg1.Pins-pg0.Pins)
	m["pager.evictions"] = float64(pg1.Evictions - pg0.Evictions)
	m["proto.encode_us"] = perFrame(layerEncode)
	m["proto.decode_us"] = perFrame(layerDecode)
	m["wavelet.apply_us"] = perFrame(layerApply)
	m["proto.dial_us"] = us(mean(load.dials))
	gap := res.FrameMeanus
	for _, layer := range ladderStages {
		gap -= perFrame(layer)
	}
	m["wire.gap_us"] = gap
	res.spans = lad.spans
	return res, st.close()
}

// envelope is the run's record: the machine, the inputs and every result.
type envelope struct {
	NProc      int                 `json:"nproc"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	GoVersion  string              `json:"go_version"`
	Commit     string              `json:"commit"`
	Seed       int64               `json:"seed"`
	City       string              `json:"city"`
	Coeffs     int64               `json:"city_coefficients"`
	GenS       float64             `json:"gen_s"`
	Clients    int                 `json:"clients"`
	Loop       string              `json:"loop"`
	Transport  string              `json:"transport"`
	Seconds    float64             `json:"timed_phase_seconds"`
	Units      map[string]string   `json:"units"`
	Bounds     map[string]float64  `json:"bounds"`
	Sets       [][]runResult       `json:"sets"`
	Workloads  []map[string]string `json:"workloads"`
}

func newEnvelope(seed int64, seconds float64) *envelope {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	e := &envelope{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, City: citySpec.String(), Clients: numClients,
		Loop:      "closed, zero think time, one goroutine and one connection per client",
		Transport: "loopback, same process", Seconds: seconds,
		Units: make(map[string]string), Bounds: make(map[string]float64),
	}
	for _, m := range endToEnd {
		e.Units[m.Name], e.Bounds[m.Name] = m.Unit, m.Bound
	}
	for _, m := range perLayer {
		e.Units[m.Name] = m.Unit
	}
	for _, w := range workloads {
		e.Workloads = append(e.Workloads, map[string]string{"name": w.Name, "why": w.Why})
	}
	return e
}

func (e *envelope) print() {
	fmt.Printf("machine: nproc %d, GOMAXPROCS %d, %s, commit %s\n", e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit)
	fmt.Printf("input:   seed %d, %s, %d coefficients (gen_s %.3f, not gated)\n", e.Seed, e.City, e.Coeffs, e.GenS)
	fmt.Printf("load:    %d clients, %s; %s; timed phase %.0f s\n", e.Clients, e.Loop, e.Transport, e.Seconds)
}

func (e *envelope) write(outDir string) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "result.json"), append(b, '\n'), 0o644)
}

func printRun(r runResult) {
	defs, kind := endToEnd, "end to end"
	if r.Trace {
		defs, kind = perLayer, "layer ladder"
	}
	fmt.Printf("\n%s · %s · pool %d trips (%d frames) per client, %d warm-up · oracle digest %s (trips and oracle %.3f s)\n",
		r.Workload, kind, r.Trips, r.PoolFrames, r.WarmTrips, r.Digest, r.PrepS)
	for _, d := range defs {
		fmt.Printf("  %-28s %14.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	fmt.Printf("  %-28s %14.4f us (not gated; mean %.4f us over %d samples, timed %.3f s)\n",
		"frame_p99.9_us", r.FrameP999us, r.FrameMeanus, r.Samples, r.TimedS)
	fmt.Printf("  %-28s %14.4f 1/s, p50 %.4f us, p99 %.4f us (not gated)\n",
		"whole phase", r.WholeFramesPerS, r.WholeP50us, r.WholeP99us)
	if r.Trace {
		fmt.Printf("  %-28s %14d frames; pager faults %d, resident pages %d\n",
			"ladder", r.LadderFrames, r.PagerFaults, r.PagerResident)
	}
	fmt.Printf("  %-28s %14d\n  %-28s %14d\n", "ops", r.Ops, "failed_ops", r.FailedOps)
	if r.FirstError != "" {
		fmt.Printf("  first error: %s\n", r.FirstError)
	}
}

// checkMechanisms verifies on one whole set that every workload exercised
// the mechanism it exists for, and that the ladder does not count any
// time twice. It prints a line per check and returns how many failed.
func checkMechanisms(set []runResult) int {
	e2e, traced := make(map[string]runResult), make(map[string]runResult)
	for _, r := range set {
		if r.Trace {
			traced[r.Workload] = r
		} else {
			e2e[r.Workload] = r
		}
	}
	failed := 0
	check := func(ok bool, format string, args ...any) {
		verdict := "ok"
		if !ok {
			verdict = "FAILED"
			failed++
		}
		fmt.Printf("  %-6s %s\n", verdict, fmt.Sprintf(format, args...))
	}
	fmt.Printf("\nmechanism checks\n")
	hit := traced["tram.mem"].Metrics["hotcache.hit_ratio"]
	check(hit < 0.01, "tram.mem: hotcache.hit_ratio %.4f < 0.01", hit)
	pg := traced["tram.paged"]
	check(pg.Metrics["pager.evictions"] > 0 && pg.PagerFaults > pg.PagerResident,
		"tram.paged: %.0f evictions > 0 and %d faults > %d resident pages", pg.Metrics["pager.evictions"], pg.PagerFaults, pg.PagerResident)
	for _, name := range []string{"tram.mem", "walk.mem", "join.hot"} {
		r := traced[name]
		check(r.Metrics["pager.evictions"] == 0 && r.PagerFaults == 0, "%s: no pager faults or evictions", name)
	}
	tram, walk := e2e["tram.mem"].Metrics["wire_bytes_per_frame"], e2e["walk.mem"].Metrics["wire_bytes_per_frame"]
	check(walk >= 8*tram, "walk.mem: %.0f B/frame is %.1fx tram.mem's %.0f, at least 8x", walk, walk/tram, tram)
	replay := traced["join.hot"].Metrics["hotcache.payload_hit_ratio"]
	check(replay >= 0.8, "join.hot: hotcache.payload_hit_ratio %.4f >= 0.8 of wholesale frames", replay)
	for _, w := range workloads {
		gap := traced[w.Name].Metrics["wire.gap_us"]
		check(gap >= 0, "%s: wire.gap_us %.4f >= 0", w.Name, gap)
	}
	return failed
}

// printRepeat prints, per workload and end-to-end metric, how far the
// second set's value is from the first's, against the metric's bound.
func printRepeat(a, b []runResult) {
	fmt.Printf("\nrepeat: set 2 against set 1 (relative difference, bound)\n")
	for i := range a {
		if a[i].Trace {
			continue
		}
		for _, d := range endToEnd {
			x, y := a[i].Metrics[d.Name], b[i].Metrics[d.Name]
			rel := (y - x) / x
			worse := rel
			if d.Better == "higher" {
				worse = -rel
			}
			verdict := "within"
			if worse > d.Bound {
				verdict = "OUTSIDE"
			}
			fmt.Printf("  %-11s %-22s %14.4f -> %14.4f  %+7.2f%%  bound %4.0f%%  %s\n",
				a[i].Workload, d.Name, x, y, 100*rel, 100*d.Bound, verdict)
		}
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and end with the JSON result line (default: all of them, as a table)")
		seed    = flag.Int64("seed", 1, "seed of every trip")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed phase of each run")
		trace   = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer ones")
		repeat  = flag.Int("repeat", 1, "without -workload: run the whole set this many times and compare the first two")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for result.json, trace.jsonl and the paged workload's segment")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var defs []*workloadDef
	if *name != "" {
		def := findWorkload(*name)
		if def == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		defs = []*workloadDef{def}
	} else {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}

	env := newEnvelope(*seed, *seconds)
	g0 := time.Now()
	store := workload.GenerateCity(citySpec)
	env.GenS, env.Coeffs = time.Since(g0).Seconds(), store.NumCoeffs()
	orc := newOracle(store)
	env.print()

	dur := time.Duration(*seconds * float64(time.Second))
	failed := 0
	var last runResult
	var spans [][numClients][]span
	for set := 0; set < *repeat; set++ {
		var results []runResult
		for _, def := range defs {
			traces := []bool{false, true}
			if *name != "" {
				traces = []bool{*trace == 1}
			}
			for _, tr := range traces {
				r, err := runWorkload(store, orc, def, *seed, dur, tr, *outDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					os.Exit(1)
				}
				printRun(r)
				failed += r.FailedOps
				results = append(results, r)
				last = r
				if tr && set == 0 {
					spans = append(spans, r.spans)
				}
			}
		}
		env.Sets = append(env.Sets, results)
		if *name == "" {
			failed += checkMechanisms(results)
		}
	}
	if len(env.Sets) > 1 {
		printRepeat(env.Sets[0], env.Sets[1])
	}
	if len(spans) > 0 {
		if err := writeTrace(filepath.Join(*outDir, "trace.jsonl"), spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if err := env.write(*outDir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}

	if *name != "" {
		type value struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{failed == 0, last.Ops, last.FailedOps, make(map[string]value)}
		for k, v := range last.Metrics {
			line.Metrics[k] = value{v, env.Units[k]}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", b)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d failed ops or mechanism checks\n", failed)
		os.Exit(1)
	}
}
