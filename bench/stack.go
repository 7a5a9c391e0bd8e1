package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/proto"
	"repro/internal/retrieval"
	"repro/internal/stats"
)

// stack is the served system: what `cmd/server -city 16 -shards 4
// -hot-cache -coalesce` wires, listening on loopback inside this process.
type stack struct {
	scene *engine.Scene
	srv   *proto.Server
	lis   net.Listener
	addr  string
	// paged is the out-of-core store of a Paged workload (nil otherwise);
	// segPath is its segment file.
	paged   *index.PagedStore
	segPath string
	served  chan error
}

// cmd/server's flag defaults, which the benchmark serves under.
const (
	serverShards       = 4
	serverIdleTimeout  = 2 * time.Minute
	serverFrameTimeout = 30 * time.Second
	serverDrainTimeout = 5 * time.Second
	serverResumeCache  = 1024
	serverResumeTTL    = 2 * time.Minute
)

// pageCacheShare is the paged workloads' page cache as a share of the
// coefficient payload: small enough that a tour's revisits fault.
const pageCacheShare = 16

// buildStack is the scene set-up a server pays before its first hello,
// and what setup_s times: for a paged workload the segment build and
// open, then the 4-shard STR bulk load, cache and coalescer wiring, and
// the listen. Stats are on, as in cmd/server.
func buildStack(store *index.Store, paged bool, dir string) (*stack, error) {
	s := &stack{served: make(chan error, 1)}
	var src index.CoefficientSource = store
	if paged {
		f, err := os.CreateTemp(dir, "scene-*.seg")
		if err != nil {
			return nil, err
		}
		s.segPath = f.Name()
		f.Close()
		if err := index.BuildSegment(s.segPath, store, cityLevels, 0); err != nil {
			return nil, fmt.Errorf("segment: %w", err)
		}
		payload := store.NumCoeffs() * index.CoeffRecordSize
		ps, err := index.OpenPaged(s.segPath, index.PagedConfig{CacheBytes: payload / pageCacheShare})
		if err != nil {
			return nil, fmt.Errorf("open segment: %w", err)
		}
		s.paged, src = ps, ps
	}
	st := stats.New()
	reg := engine.NewRegistry()
	sc, err := reg.Build(engine.SceneConfig{
		Name: proto.DefaultSceneName, Source: src, Levels: cityLevels, Shards: serverShards, Stats: st,
	})
	if err != nil {
		return nil, err
	}
	reg.EnableHotCache(hotcache.Config{}, st)
	reg.EnableCoalescer(retrieval.CoalescerConfig{}, st)
	s.scene = sc

	s.srv = proto.NewMultiServer(reg, nil)
	s.srv.SetStats(st)
	s.srv.SetLimits(0, serverIdleTimeout, serverFrameTimeout)
	s.srv.SetResumeCache(serverResumeCache, serverResumeTTL)
	s.srv.SetDrainTimeout(serverDrainTimeout)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.lis, s.addr = lis, lis.Addr().String()
	go func() { s.served <- s.srv.Serve(lis) }()
	return s, nil
}

// close stops the server, waits for its accept loop and handlers, and
// removes the segment file.
func (s *stack) close() error {
	s.srv.Close()
	// A Close that wins the race with Serve's start finds no listener to
	// close, and Serve would then accept forever.
	s.lis.Close()
	err := <-s.served
	if s.paged != nil {
		if cerr := s.paged.Close(); err == nil {
			err = cerr
		}
		os.Remove(s.segPath)
	}
	return err
}

// pagerStats snapshots the paged store's counters; all zero for a
// resident store, which has no pager.
func (s *stack) pagerStats() persist.PagerStats {
	if s.paged == nil {
		return persist.PagerStats{}
	}
	return s.paged.PagerStats()
}

// setupBuilds is how many times the stack is built to take setup_s as a
// median; the last build is the one served.
const setupBuilds = 3

// setUp builds the stack setupBuilds times and returns the last build
// with the median build time in seconds.
func setUp(store *index.Store, paged bool, outDir string) (*stack, float64, error) {
	// Segments of a run that was killed would otherwise pile up.
	stale, _ := filepath.Glob(filepath.Join(outDir, "scene-*.seg"))
	for _, p := range stale {
		os.Remove(p)
	}
	var times []float64
	var s *stack
	for i := 0; i < setupBuilds; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, 0, err
			}
		}
		// Each build starts from a collected heap, so that none pays for
		// the garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = buildStack(store, paged, outDir); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, median(times), nil
}
