// Command experiments regenerates the paper's evaluation figures
// (Figures 8–15) and prints each as a text table. By default it runs the
// full paper-scale configuration (300 objects ≈ 60 MB, 5 tours per
// setting); -quick shrinks everything for a fast smoke run.
//
// Usage:
//
//	experiments [-quick] [-fig fig8,fig12] [-objects N] [-tours N]
//	            [-steps N] [-seed N] [-o out.txt] [-stats 0] [-stats-dump]
//	            [-fault] [-crash] [-cluster] [-shards N]
//	            [-abr] [-abr-profile osc] [-abr-low N] [-abr-high N] [-abr-period D]
//	            [-city] [-city-blocks N] [-city-clients N]
//	            [-diskfault] [-diskfault-retries N]
//	            [-crowd] [-crowd-clients N] [-crowd-overlap F] [-crowd-attractors N]
//	            [-bench-abr out.json] [-bench-crowd out.json]
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
		out       = flag.String("o", "", "also write output to this file")
		shards    = flag.Int("shards", 0, "index shard count where applicable (0 or 1 = one shard)")

		fault        = flag.Bool("fault", false, "run the fault-injection experiment instead of the figures")
		faultSeed    = flag.Int64("fault-seed", 1, "seed for the injected fault schedule")
		faultDrop    = flag.Int64("fault-drop", 0, "mean bytes between connection drops (0 = default 16 KB)")
		faultCorrupt = flag.Int64("fault-corrupt", 0, "mean read bytes between bit flips (0 = default 12 KB)")
		faultLatency = flag.Duration("fault-latency", 0, "injected round-trip latency")
		faultBW      = flag.Int64("fault-bw", 0, "link throughput in bytes/second (0 = unthrottled)")

		abrRun     = flag.Bool("abr", false, "run the bandwidth-adaptation acceptance experiment instead of the figures")
		abrProfile = flag.String("abr-profile", "", "throttle schedule: flat, step, ramp, or osc (default osc)")
		abrLow     = flag.Int64("abr-low", 0, "throttle schedule floor in bytes/second (0 = default 16 KiB/s)")
		abrHigh    = flag.Int64("abr-high", 0, "throttle schedule ceiling in bytes/second (0 = default 128 KiB/s)")
		abrPeriod  = flag.Duration("abr-period", 0, "throttle schedule period (0 = default 1.5s)")

		benchABR = flag.String("bench-abr", "", "run the utility-vs-bandwidth ABR benchmark and write its JSON result to this file")

		cityRun     = flag.Bool("city", false, "run the out-of-core city acceptance soak instead of the figures")
		cityBlocks  = flag.Int("city-blocks", 0, "city blocks per side (0 = experiment default)")
		cityClients = flag.Int("city-clients", 0, "concurrent seeded tours in the city soak (0 = default 3)")

		diskFault      = flag.Bool("diskfault", false, "run the storage-fault tolerance soak instead of the figures")
		diskFaultRetry = flag.Int("diskfault-retries", 0, "pager retries per transient fault (0 = default 2)")

		crowdRun        = flag.Bool("crowd", false, "run the crowd-serving acceptance soak (coalesced vs independent byte-identity) instead of the figures")
		crowdClients    = flag.Int("crowd-clients", 0, "crowd size in the soak (0 = default 16)")
		crowdOverlap    = flag.Float64("crowd-overlap", 0, "fraction of the crowd flocked onto shared attractors (0 = default 0.75; negative = no flocking)")
		crowdAttractors = flag.Int("crowd-attractors", 0, "shared attractor paths (0 = default 3)")
		benchCrowd      = flag.String("bench-crowd", "", "run the crowd-scaling coalescer benchmark and write its JSON result to this file")

		clusterRun = flag.Bool("cluster", false, "run the cluster failover-and-drain experiment instead of the figures")
		clusterDir = flag.String("cluster-dir", "", "durable state root for the cluster experiment (default: fresh temp dir)")

		crash      = flag.Bool("crash", false, "run the kill-restart crash experiment instead of the figures")
		crashKills = flag.Int("crash-kills", 0, "mid-tour server kills (0 = default 3)")
		crashCold  = flag.Bool("crash-cold", false, "delete the session journal at each restart (forces full re-plans)")
		crashDir   = flag.String("crash-dir", "", "durable state directory for the crash experiment (default: fresh temp dir)")
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

	if *benchABR != "" {
		spec := experiment.ABRBenchSpec{
			Seed:    *seed,
			Objects: *objects,
			Frames:  *steps,
		}
		if _, err := experiment.RunABRBench(spec, *benchABR, w); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchCrowd != "" {
		spec := experiment.CrowdBenchSpec{
			Seed:       *seed,
			Objects:    *objects,
			Steps:      *steps,
			Attractors: *crowdAttractors,
		}
		if _, err := experiment.RunCrowdBench(spec, *benchCrowd, w); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *crowdRun {
		spec := experiment.CrowdRunSpec{
			Seed:       *seed,
			Objects:    *objects,
			Clients:    *crowdClients,
			Steps:      *steps,
			Attractors: *crowdAttractors,
			Overlap:    *crowdOverlap,
			Shards:     *shards,
		}
		if err := experiment.RunCrowd(spec, w); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *cityRun {
		spec := experiment.CitySpec{
			Seed:    *seed,
			Blocks:  *cityBlocks,
			Steps:   *steps,
			Clients: *cityClients,
		}
		if err := experiment.RunCity(spec, w); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *diskFault {
		spec := experiment.DiskFaultSpec{
			Seed:     *seed,
			Blocks:   *cityBlocks,
			Steps:    *steps,
			Clients:  *cityClients,
			RetryMax: *diskFaultRetry,
		}
		if err := experiment.RunDiskFault(spec, w); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *abrRun {
		spec := experiment.ABRSpec{
			Seed:    *seed,
			Objects: *objects,
			Steps:   *steps,
			Profile: *abrProfile,
			LowBPS:  *abrLow,
			HighBPS: *abrHigh,
			Period:  *abrPeriod,
		}
		if err := experiment.RunABR(spec, w); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *clusterRun {
		spec := experiment.ClusterSpec{
			Seed:    *seed,
			Objects: *objects,
			Steps:   *steps,
			Shards:  *shards,
			DataDir: *clusterDir,
		}
		if err := experiment.RunCluster(spec, w); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	tram := experiment.TramSoakSpec{
		Seed:          *faultSeed,
		Objects:       *objects,
		Steps:         *steps,
		Shards:        *shards,
		DropMeanBytes: *faultDrop,
		CorruptBytes:  *faultCorrupt,
	}

	if *crash {
		spec := experiment.CrashSpec{
			TramSoakSpec: tram,
			Kills:        *crashKills,
			ColdJournal:  *crashCold,
			DataDir:      *crashDir,
		}
		if err := experiment.RunCrash(spec, w); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *fault {
		spec := experiment.FaultSpec{
			TramSoakSpec:   tram,
			Latency:        *faultLatency,
			BytesPerSecond: *faultBW,
		}
		if err := experiment.RunFault(spec, w); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	want := map[string]bool{}
	if *figs != "" {
		for _, id := range strings.Split(*figs, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	gens := experiment.Generators()
	if *ablations {
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
		fmt.Fprintf(os.Stderr, "experiments: no figures matched %q\n", *figs)
		os.Exit(1)
	}
}
