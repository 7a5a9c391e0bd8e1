// Command server runs the motion-aware 3D object retrieval server over
// TCP. It serves one scene — by default 100 generated objects, with
// -city N a city of N×N blocks — plus one per -scenes segment file, each
// under a sharded support-region (x, y, w) R*-tree, and answers
// continuous window queries with per-client duplicate filtering
// (internal/proto).
//
// The flags are a scene recipe plus the serving settings: the server
// boots through cluster.StartBackend, the stack the crash, drain and
// gateway soaks kill and restart. With -data-dir it is crash-safe: the
// boot that builds the scenes writes each one's segment once, parked
// sessions are journaled, and a restart serves both again instead of
// running the recipe. Each segment is read into memory or, with -store
// paged, served out of core. -h lists the flags.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // side profiling listener, gated by -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/persist"
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
	var (
		r         recipe
		store     string
		pageCache int64
	)
	s := &server{cfg: cluster.BackendConfig{Scenes: r.scenes, Stats: stats.Default, Logf: log.Printf}}
	c := &s.cfg
	fs.StringVar(&c.Addr, "addr", ":7333", "listen address")
	fs.IntVar(&r.objects, "objects", 100, "number of 3D objects")
	fs.IntVar(&r.levels, "levels", 5, "subdivision levels per object")
	fs.BoolVar(&r.zipf, "zipf", false, "Zipfian object placement")
	fs.Int64Var(&r.seed, "seed", 1, "dataset seed")
	fs.IntVar(&r.shards, "shards", 1, "grid shards per scene index (1 = single shard)")
	fs.StringVar(&r.scene, "scene", proto.DefaultSceneName, "name of the primary scene")
	fs.StringVar(&r.extra, "scenes", "", "extra scenes as comma-separated name=file pairs, each file a scene segment (scene-<name>.seg of a -data-dir)")

	fs.StringVar(&c.DataDir, "data-dir", "", "durable state directory (scene segments written once at the first boot + session journal); empty disables persistence")

	fs.StringVar(&store, "store", "mem", "coefficient store: mem (each segment read into memory) or paged (served out of core from -data-dir)")
	fs.Int64Var(&pageCache, "page-cache-bytes", 64<<20, "paged store's resident-page budget in bytes")
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

	switch store {
	case "mem":
	case "paged":
		if c.DataDir == "" {
			return nil, fmt.Errorf("-store=paged needs -data-dir to hold the segment files")
		}
		c.PageCacheBytes = cmp.Or(max(pageCache, 0), persist.DefaultPageCacheBytes)
	default:
		return nil, fmt.Errorf("bad -store %q (want mem or paged)", store)
	}
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

// recipe is the scenes a fresh boot serves: scatter or city, plus one
// per -scenes segment file.
type recipe struct {
	scene, extra               string
	objects, levels, shards    int
	city, cityLots, cityLevels int
	zipf                       bool
	seed                       int64
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
	primary := engine.SceneConfig{Name: r.scene, Levels: r.cityLevels, Shards: r.shards}
	if r.city > 0 {
		log.Printf("generating %v...", r.citySpec())
		primary.Source = workload.GenerateCity(r.citySpec())
	} else {
		spec := r.scatter()
		log.Printf("generating %d objects at %d levels (%v placement)...", spec.NumObjects, spec.Levels, spec.Placement)
		d := workload.Generate(spec)
		log.Printf("dataset ready: %v", d)
		primary.Source, primary.Levels = d.Store, spec.Levels
	}
	scenes := []engine.SceneConfig{primary}
	if r.extra == "" {
		return scenes, nil
	}
	for _, pair := range strings.Split(r.extra, ",") {
		name, file, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || file == "" {
			return nil, fmt.Errorf("bad -scenes entry %q (want name=file)", pair)
		}
		log.Printf("loading scene %q from %s...", name, file)
		ps, err := index.OpenPaged(file, index.PagedConfig{})
		if err != nil {
			return nil, fmt.Errorf("scene %q: %w", name, err)
		}
		store, err := ps.Load()
		ps.Close()
		if err != nil {
			return nil, fmt.Errorf("scene %q: %w", name, err)
		}
		scenes = append(scenes, engine.SceneConfig{Name: name, Source: store, Levels: ps.Levels(), Shards: r.shards})
	}
	return scenes, nil
}
