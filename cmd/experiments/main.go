// Command experiments regenerates the paper's evaluation figures
// (Figures 8–15) and prints each as a text table. By default it runs the
// full paper-scale configuration (300 objects ≈ 60 MB, 5 tours per
// setting); -quick shrinks everything for a fast smoke run.
//
// Usage:
//
//	experiments [-quick] [-fig fig8,fig12] [-objects N] [-tours N]
//	            [-steps N] [-seed N] [-clients N] [-o out.txt] [-stats 0] [-stats-dump]
//	            [-crash] [-fault-drop N] [-fault-corrupt N] [-crash-dir DIR]
//	            [-cluster] [-shards N]
//	            [-abr] [-abr-profile osc] [-abr-low N] [-abr-high N] [-abr-period D]
//	            [-outofcore]
//	            [-crowd] [-crowd-overlap F] [-crowd-attractors N]
//	            [-bench-abr out.json] [-bench-crowd out.json]
//
// -seed seeds whichever experiment runs (for the crash soak, the
// dataset, tour, fault schedule and kill frames); -clients sizes the out-of-core
// soak's client pairs and the crowd soak's crowd.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/persist"
	"repro/internal/stats"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "reduced scale (small dataset, few tours)")
		figs      = flag.String("fig", "", "comma-separated figure ids (default: all)")
		ablations = flag.Bool("ablations", false, "also run the design-choice ablations")
		objects   = flag.Int("objects", 0, "override default dataset object count")
		tours     = flag.Int("tours", 0, "override tours per setting")
		steps     = flag.Int("steps", 0, "override steps per tour")
		seed      = flag.Int64("seed", 1, "base random seed")
		clients   = flag.Int("clients", 0, "client pairs in the out-of-core soak (0 = default 3), crowd size in the crowd soak (0 = default 16)")
		out       = flag.String("o", "", "also write output to this file")
		shards    = flag.Int("shards", 0, "index shard count where applicable (0 or 1 = one shard)")

		abrRun     = flag.Bool("abr", false, "run the bandwidth-adaptation acceptance experiment instead of the figures")
		abrProfile = flag.String("abr-profile", "", "throttle schedule: flat, step, ramp, or osc (default osc)")
		abrLow     = flag.Int64("abr-low", 0, "throttle schedule floor in bytes/second (0 = default 16 KiB/s)")
		abrHigh    = flag.Int64("abr-high", 0, "throttle schedule ceiling in bytes/second (0 = default 128 KiB/s)")
		abrPeriod  = flag.Duration("abr-period", 0, "throttle schedule period (0 = default 1.5s)")

		benchABR = flag.String("bench-abr", "", "run the utility-vs-bandwidth ABR benchmark and write its JSON result to this file")

		outOfCore = flag.Bool("outofcore", false, "run the out-of-core soak (a paged city behind a fault-injecting disk) instead of the figures")

		crowdRun        = flag.Bool("crowd", false, "run the crowd-serving acceptance soak (coalesced vs independent byte-identity) instead of the figures")
		crowdOverlap    = flag.Float64("crowd-overlap", 0, "fraction of the crowd flocked onto shared attractors (0 = default 0.75; negative = no flocking)")
		crowdAttractors = flag.Int("crowd-attractors", 0, "shared attractor paths (0 = default 3)")
		benchCrowd      = flag.String("bench-crowd", "", "run the crowd-scaling coalescer benchmark and write its JSON result to this file")

		clusterRun = flag.Bool("cluster", false, "run the cluster failover-and-drain experiment instead of the figures")
		clusterDir = flag.String("cluster-dir", "", "durable state root for the cluster experiment (default: fresh temp dir)")

		crash        = flag.Bool("crash", false, "run the kill-and-fault soak instead of the figures")
		faultDrop    = flag.Int64("fault-drop", 0, "crash soak: mean bytes between connection drops (0 = default 16 KB)")
		faultCorrupt = flag.Int64("fault-corrupt", 0, "crash soak: mean read bytes between bit flips (0 = default 12 KB)")
		crashDir     = flag.String("crash-dir", "", "durable state directory for the crash soak (default: fresh temp dir)")
	)
	statsFlags := stats.RegisterFlags(flag.CommandLine, 0)
	flag.Parse()

	cfg := experiment.Config{
		Quick:   *quick,
		Objects: *objects,
		Tours:   *tours,
		Steps:   *steps,
		Seed:    *seed,
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		// Buffer the tee and write the file atomically at exit: an
		// interrupted or failed run leaves the previous output intact
		// instead of a truncated file.
		var outBuf bytes.Buffer
		w = io.MultiWriter(os.Stdout, &outBuf)
		defer func() {
			if err := persist.WriteBytesAtomic(*out, outBuf.Bytes()); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: write %s: %v\n", *out, err)
			}
		}()
	}
	stopStats := statsFlags.Start(stats.Default, log.Printf)
	defer stopStats()

	var err error
	switch {
	case *benchABR != "":
		_, err = experiment.RunABRBench(experiment.ABRBenchSpec{Seed: *seed, Objects: *objects, Frames: *steps}, *benchABR, w)
	case *benchCrowd != "":
		_, err = experiment.RunCrowdBench(experiment.CrowdBenchSpec{
			Seed: *seed, Objects: *objects, Steps: *steps, Attractors: *crowdAttractors,
		}, *benchCrowd, w)
	case *crowdRun:
		err = experiment.RunCrowd(experiment.CrowdRunSpec{
			Seed: *seed, Objects: *objects, Clients: *clients, Steps: *steps,
			Attractors: *crowdAttractors, Overlap: *crowdOverlap, Shards: *shards,
		}, w)
	case *outOfCore:
		err = experiment.RunOutOfCore(experiment.OutOfCoreSpec{
			Seed: *seed, Steps: *steps, Clients: *clients,
		}, w)
	case *abrRun:
		err = experiment.RunABR(experiment.ABRSpec{
			Seed: *seed, Objects: *objects, Steps: *steps,
			Profile: *abrProfile, LowBPS: *abrLow, HighBPS: *abrHigh, Period: *abrPeriod,
		}, w)
	case *clusterRun:
		err = experiment.RunCluster(experiment.ClusterSpec{
			Seed: *seed, Objects: *objects, Steps: *steps, Shards: *shards, DataDir: *clusterDir,
		}, w)
	case *crash:
		err = experiment.RunCrash(experiment.CrashSpec{
			TramSoakSpec:  experiment.TramSoakSpec{Seed: *seed, Objects: *objects, Steps: *steps, Shards: *shards},
			DropMeanBytes: *faultDrop, CorruptBytes: *faultCorrupt, DataDir: *crashDir,
		}, w)
	default:
		err = runFigures(w, cfg, *figs, *ablations)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// runFigures prints the figures (and, with ablations, the ablation
// tables) whose ids figs lists, comma-separated; "" runs them all.
func runFigures(w io.Writer, cfg experiment.Config, figs string, ablations bool) error {
	want := map[string]bool{}
	if figs != "" {
		for _, id := range strings.Split(figs, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	gens := experiment.Generators()
	if ablations {
		gens = append(gens, experiment.AblationGenerators()...)
	}
	ran := 0
	for _, g := range gens {
		if len(want) > 0 && !want[g.ID] {
			continue
		}
		start := time.Now()
		table := g.Run(cfg)
		fmt.Fprintln(w, table.Format())
		fmt.Fprintf(w, "(%s took %v)\n\n", g.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no figures matched %q", figs)
	}
	return nil
}
