// Command server runs the motion-aware 3D object retrieval server over
// TCP. It serves one scene — by default 100 generated objects, with
// -city N a city of N×N blocks, with -load a saved dataset; resident or,
// with -store paged, out of core — plus any -scenes datasets, each under
// a sharded support-region (x, y, w) R*-tree, and answers continuous
// window queries with per-client duplicate filtering (internal/proto).
//
// The flags are a scene recipe plus the serving settings: the server
// boots through cluster.StartBackend, the stack the crash, drain and
// gateway soaks kill and restart. With -data-dir it is crash-safe: the
// boot that builds the scenes writes each one's file once, parked
// sessions are journaled, and a restart serves both again instead of
// running the recipe. -h lists the flags.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // side profiling listener, gated by -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	s, err := parse(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	_, stop, err := s.start()
	if err != nil {
		log.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	log.Printf("received %v; shutting down", <-sig)
	stop()
	log.Printf("shutdown complete")
}

// server is one parsed command line: the backend it boots and the side
// services around it.
type server struct {
	cfg       cluster.BackendConfig
	pprofAddr string
	stats     *stats.Flags
}

// parse reads a command line into the server it describes.
func parse(args []string) (*server, error) {
	fs := flag.NewFlagSet("server", flag.ExitOnError)
	var r recipe
	s := &server{cfg: cluster.BackendConfig{Scenes: r.scenes, Stats: stats.Default, Logf: log.Printf}}
	c := &s.cfg
	fs.StringVar(&c.Addr, "addr", ":7333", "listen address")
	fs.IntVar(&r.objects, "objects", 100, "number of 3D objects")
	fs.IntVar(&r.levels, "levels", 5, "subdivision levels per object")
	fs.BoolVar(&r.zipf, "zipf", false, "Zipfian object placement")
	fs.Int64Var(&r.seed, "seed", 1, "dataset seed")
	fs.StringVar(&r.save, "save", "", "write the generated dataset to this file and continue")
	fs.StringVar(&r.load, "load", "", "serve a previously saved dataset instead of generating")
	fs.IntVar(&r.shards, "shards", 1, "grid shards per scene index (1 = single shard)")
	fs.StringVar(&r.scene, "scene", proto.DefaultSceneName, "name of the primary scene")
	fs.StringVar(&r.extra, "scenes", "", "extra scenes as comma-separated name=file pairs")

	fs.StringVar(&c.DataDir, "data-dir", "", "durable state directory (scene files written once at the first boot + session journal); empty disables persistence")

	fs.StringVar(&r.store, "store", "mem", "coefficient store: mem (resident) or paged (out-of-core segment in -data-dir)")
	fs.Int64Var(&r.pageCache, "page-cache-bytes", 64<<20, "paged store's resident-page budget in bytes")
	fs.BoolVar(&c.VerifyPages, "verify-pages", false, "scrub every paged-store page against its CRC at boot; corrupt pages are quarantined and logged")
	fs.DurationVar(&c.ScrubInterval, "scrub-interval", 0, "background scrub cadence for the paged store (0 disables); each pass re-verifies every page and converges quarantine state with the disk")
	fs.IntVar(&r.city, "city", 0, "serve a deterministic city of N×N blocks instead of the scatter dataset (0 = off)")
	fs.IntVar(&r.cityLots, "city-lots", 3, "buildings per block side in the -city grid")
	fs.IntVar(&r.cityLevels, "city-levels", 3, "subdivision levels per -city building")

	fs.BoolVar(&c.HotCache, "hot-cache", false, "enable the per-scene sharing table: a repeated sub-query is answered from it, and concurrent sessions asking the identical one share one index pass")
	fs.StringVar(&s.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this side listener (empty disables)")

	fs.IntVar(&c.MaxSessions, "max-sessions", 0, "shed connections beyond this many concurrent sessions (0 = unlimited)")
	fs.DurationVar(&c.IdleTimeout, "idle-timeout", 2*time.Minute, "disconnect a session silent for this long (0 disables)")
	fs.DurationVar(&c.FrameTimeout, "frame-timeout", 30*time.Second, "per-frame read/write deadline (0 disables)")
	fs.DurationVar(&c.DrainTimeout, "drain-timeout", 5*time.Second, "graceful-shutdown drain bound")
	fs.IntVar(&c.ResumeCapacity, "resume-cache", engine.DefaultResumeCapacity, "dropped sessions kept resumable per scene (0 disables resumption)")
	fs.DurationVar(&c.ResumeTTL, "resume-ttl", engine.DefaultResumeTTL, "how long a dropped session stays resumable")
	fs.Int64Var(&c.BudgetCap, "budget-cap", 0, "server-side ceiling on every frame's bytes; clamps oversized and unlimited client budgets (0 disables)")
	s.stats = stats.RegisterFlags(fs, 0)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	switch r.store {
	case "mem", "paged":
	default:
		return nil, fmt.Errorf("bad -store %q (want mem or paged)", r.store)
	}
	if r.store == "paged" && c.DataDir == "" {
		return nil, fmt.Errorf("-store=paged needs -data-dir to hold the segment file")
	}
	r.dataDir = c.DataDir
	// A zero flag here means none; a zero field there keeps a default.
	c.DrainTimeout, c.ResumeCapacity, c.ResumeTTL = none(c.DrainTimeout), none(c.ResumeCapacity), none(c.ResumeTTL)
	return s, nil
}

// none maps a flag's 0 ("none") onto BackendConfig's negative.
func none[T int | time.Duration](v T) T {
	if v == 0 {
		return -1
	}
	return v
}

// start boots the backend and the side services; stop drains the
// backend, closes its journal and halts the stats logger.
func (s *server) start() (b *cluster.Backend, stop func(), err error) {
	if s.pprofAddr != "" {
		// Side listener only: the serving port never exposes profiling.
		go func() {
			log.Printf("pprof listening on %s", s.pprofAddr)
			if err := http.ListenAndServe(s.pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	b, err = cluster.StartBackend(s.cfg)
	if err != nil {
		return nil, nil, err
	}
	stopStats := s.stats.Start(s.cfg.Stats, log.Printf)
	return b, func() { b.Stop(); stopStats() }, nil
}

// recipe is the scene a fresh boot builds: scatter or city, resident or
// paged, plus any -load and -scenes datasets.
type recipe struct {
	dataDir, store, scene, extra, load, save string
	objects, levels, shards                  int
	city, cityLots, cityLevels               int
	zipf                                     bool
	seed, pageCache                          int64
}

func (r *recipe) scatter() workload.Spec {
	placement := workload.Uniform
	if r.zipf {
		placement = workload.Zipf
	}
	return workload.Spec{NumObjects: r.objects, Levels: r.levels, Placement: placement, Seed: r.seed, DropFinals: true}
}

func (r *recipe) citySpec() workload.CitySpec {
	return workload.CitySpec{BlocksX: r.city, BlocksY: r.city, LotsPerBlock: r.cityLots, Levels: r.cityLevels, Seed: r.seed}
}

// scenes runs the recipe.
func (r *recipe) scenes() ([]engine.SceneConfig, error) {
	if r.store == "paged" {
		sc, err := r.paged()
		return []engine.SceneConfig{sc}, err
	}
	if r.city > 0 {
		// A city held fully resident — the oracle configuration the paged
		// store is validated against, and the small-city default.
		log.Printf("generating %v...", r.citySpec())
		return []engine.SceneConfig{{
			Name: r.scene, Source: workload.GenerateCity(r.citySpec()), Levels: r.cityLevels, Shards: r.shards,
		}}, nil
	}
	var d *workload.Dataset
	if r.load != "" {
		log.Printf("loading dataset from %s...", r.load)
		var err error
		if d, err = workload.LoadFile(r.load, false); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
	} else {
		spec := r.scatter()
		log.Printf("generating %d objects at %d levels (%v placement)...", spec.NumObjects, spec.Levels, spec.Placement)
		d = workload.Generate(spec)
		if r.save != "" {
			if err := d.SaveFile(r.save); err != nil {
				return nil, fmt.Errorf("save: %w", err)
			}
			log.Printf("saved dataset to %s", r.save)
		}
	}
	log.Printf("dataset ready: %v", d)
	scenes := []engine.SceneConfig{{Name: r.scene, Dataset: d, Levels: d.Spec.Levels, Shards: r.shards}}
	if r.extra == "" {
		return scenes, nil
	}
	for _, pair := range strings.Split(r.extra, ",") {
		name, file, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || file == "" {
			return nil, fmt.Errorf("bad -scenes entry %q (want name=file)", pair)
		}
		log.Printf("loading scene %q from %s...", name, file)
		sd, err := workload.LoadFile(file, false)
		if err != nil {
			return nil, fmt.Errorf("scene %q: %w", name, err)
		}
		scenes = append(scenes, engine.SceneConfig{Name: name, Dataset: sd, Levels: sd.Spec.Levels, Shards: r.shards})
	}
	return scenes, nil
}

// paged is the out-of-core scene: coefficients live in a paged segment
// under -data-dir, and only the index, metadata and resident pages stay
// in memory. An existing segment is served as-is; otherwise it is built
// once — streamed, never materialized — and then opened.
func (r *recipe) paged() (engine.SceneConfig, error) {
	segPath := filepath.Join(r.dataDir, "scene-"+r.scene+".seg")
	if _, err := os.Stat(segPath); os.IsNotExist(err) {
		if r.city > 0 {
			log.Printf("building %v into %s...", r.citySpec(), segPath)
			err = workload.BuildCitySegment(segPath, r.citySpec(), 0)
		} else {
			log.Printf("generating %d objects at %d levels into %s...", r.objects, r.levels, segPath)
			err = index.BuildSegment(segPath, workload.Generate(r.scatter()).Store, r.levels, 0)
		}
		if err != nil {
			return engine.SceneConfig{}, fmt.Errorf("segment: %w", err)
		}
	} else if err != nil {
		return engine.SceneConfig{}, fmt.Errorf("segment: %w", err)
	}
	ps, err := index.OpenPaged(segPath, index.PagedConfig{CacheBytes: r.pageCache})
	if err != nil {
		return engine.SceneConfig{}, fmt.Errorf("open segment: %w", err)
	}
	return engine.SceneConfig{Name: r.scene, Source: ps, Levels: ps.Levels(), Shards: r.shards}, nil
}
