// Package engine is the multi-scene serving layer extracted from the
// formerly monolithic store/index/server stack: a registry of named
// scenes, each owning its coefficient source, its (sharded) index, its
// retrieval server, and its session table. The wire protocol
// layer routes connections to scenes by name; everything below the
// registry stays scene-oblivious.
//
// Dependency direction: engine imports index/retrieval/stats; proto
// imports engine. The index layer sees only the CoefficientSource
// interface, never a scene.
package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/retrieval"
	"repro/internal/stats"
)

// MaxSceneName bounds scene names on the wire and in the registry.
const MaxSceneName = 64

// ValidateSceneName checks a scene name for registry and wire use:
// non-empty, at most MaxSceneName bytes, ASCII letters, digits, and
// ._- only (no separators or control bytes that could smuggle structure
// into logs or file paths derived from the name).
func ValidateSceneName(name string) error {
	if name == "" {
		return fmt.Errorf("engine: empty scene name")
	}
	if len(name) > MaxSceneName {
		return fmt.Errorf("engine: scene name longer than %d bytes", MaxSceneName)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("engine: scene name contains invalid byte %q", c)
		}
	}
	return nil
}

// Scene bundles everything the serving stack needs for one named data
// set: the coefficient source, the index over it, the retrieval server
// executing sub-queries, the subdivision depth announced to clients, and
// the session table holding every lineage of the scene.
type Scene struct {
	Name     string
	Source   index.CoefficientSource
	Index    index.IntoSearcher
	Server   *retrieval.Server
	Levels   int
	Sessions *Sessions
}

// SceneConfig describes a scene for Registry.Build.
type SceneConfig struct {
	Name   string
	Source index.CoefficientSource
	Levels int
	// Layout selects the index dimensionality (default XYW, as the
	// paper's experiments use).
	Layout index.Layout
	// Shards partitions the scene's index; ≤ 1 builds a single shard.
	Shards int
	// Stats receives this scene's counters (nil → stats.Default).
	Stats *stats.Stats
}

// Registry owns the scenes of one serving process. The first scene added
// is the default — the one a connection lands on before (or without)
// selecting a name. Scenes are added at startup and by a drain, and get
// the registry's settings whenever they are added; Get runs on every
// connection handshake and scene switch, so lookups take a read lock.
type Registry struct {
	mu     sync.RWMutex
	scenes map[string]*Scene
	order  []string
	// settings holds each setting call, in call order, as a function
	// that applies it to one scene.
	settings []func(*Scene)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{scenes: make(map[string]*Scene)}
}

// AddScene registers a scene built from an existing retrieval server
// (the single-scene servers predating the registry wrap themselves this
// way). The scene gets a session table and sharing layers as the
// registry's settings say, and the retrieval server is tagged with the
// scene name so executed requests land in the per-scene stats breakdown.
func (r *Registry) AddScene(name string, srv *retrieval.Server, levels int) (*Scene, error) {
	if err := ValidateSceneName(name); err != nil {
		return nil, err
	}
	sc := &Scene{
		Name:     name,
		Source:   srv.Store(),
		Index:    srv.Index(),
		Server:   srv,
		Levels:   levels,
		Sessions: newSessions(name, srv),
	}
	srv.SetScene(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.scenes[name]; dup {
		return nil, fmt.Errorf("engine: scene %q already registered", name)
	}
	r.scenes[name] = sc
	r.order = append(r.order, name)
	for _, set := range r.settings {
		set(sc)
	}
	return sc, nil
}

// apply records a setting and applies it to every registered scene;
// AddScene applies it to each later one.
func (r *Registry) apply(set func(*Scene)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.settings = append(r.settings, set)
	for _, sc := range r.scenes {
		set(sc)
	}
}

// Build constructs a scene from a coefficient source — sharded index,
// retrieval server, stats wiring — and registers it.
func (r *Registry) Build(cfg SceneConfig) (*Scene, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("engine: scene %q has no source", cfg.Name)
	}
	st := cfg.Stats
	if st == nil {
		st = stats.Default
	}
	idx := index.NewSharded(cfg.Source, cfg.Layout, index.ShardedConfig{Shards: cfg.Shards})
	idx.SetStats(st)
	srv := retrieval.NewServer(cfg.Source, idx)
	srv.SetStats(st)
	sc, err := r.AddScene(cfg.Name, srv, cfg.Levels)
	if err != nil {
		return nil, err
	}
	if ps, ok := cfg.Source.(interface{ PagerStats() persist.PagerStats }); ok {
		// An out-of-core source: surface its paging gauges so -stats-dump
		// shows residency, faults, and pins per snapshot.
		st.AddSource(func(v *stats.Values) {
			p := ps.PagerStats()
			v[stats.PagerFaults] += p.Faults
			v[stats.PagerHits] += p.Hits
			v[stats.PagerEvictions] += p.Evictions
			v[stats.PagerPins] += p.Pins
			v[stats.PagerRetries] += p.Retries
			v[stats.PagerFaultErrors] += p.FaultErrors
			v[stats.PagerQuarantined] += p.Quarantined
			v[stats.PagerPagesResident] += p.PagesResident
			v[stats.PagerPagesPinned] += p.PagesPinned
			v[stats.PagerResidentBytes] += p.ResidentBytes
			v[stats.PagerCacheBytes] += p.CacheBytes
		})
	}
	return sc, nil
}

// EnableHotCache equips every scene, registered now or later, with a
// sharing table (see internal/hotcache): concurrent sessions asking the
// identical sub-query share one index pass, and a repeated one is
// answered from the table. It registers each table's counters as a
// stats gauge source, the hotcache.* and coalescer.* rows. Call while no
// request is in flight.
func (r *Registry) EnableHotCache(cfg hotcache.Config, st *stats.Stats) {
	r.apply(func(sc *Scene) {
		if sc.Server.HotCache() != nil {
			return // already wired
		}
		c := hotcache.New(cfg)
		sc.Server.SetHotCache(c)
		st.AddSource(func(v *stats.Values) {
			hs := c.Stats()
			v[stats.HotHits] += hs.Hits
			v[stats.HotMisses] += hs.Misses
			v[stats.HotEvictions] += hs.Evictions
			v[stats.HotEntries] += int64(hs.Entries)
			v[stats.HotBytes] += hs.Bytes
			v[stats.HotSubscribers] += hs.Subscribers
			v[stats.HotPayloadHits] += hs.PayloadHits
			v[stats.CoalescerRouted] += hs.Routed
			v[stats.CoalescerLed] += hs.Led
			v[stats.CoalescerShared] += hs.Shared
			v[stats.CoalescerFlights] += int64(hs.Flights)
		})
	})
}

// EnableCoalescer does nothing: EnableHotCache's table shares searches
// in flight. It is kept only for bench/ (DESIGN §17 lists every such
// name).
func (r *Registry) EnableCoalescer(retrieval.CoalescerConfig, *stats.Stats) {}

// Get returns the scene by name; the empty name resolves to the default
// scene.
func (r *Registry) Get(name string) (*Scene, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.order) == 0 {
			return nil, false
		}
		return r.scenes[r.order[0]], true
	}
	sc, ok := r.scenes[name]
	return sc, ok
}

// Default returns the default scene (nil for an empty registry).
func (r *Registry) Default() *Scene {
	sc, _ := r.Get("")
	return sc
}

// Names returns the registered scene names, default first, the rest
// sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	if len(out) > 1 {
		sort.Strings(out[1:])
	}
	return out
}

// Len returns the number of registered scenes.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.scenes)
}

// SetResumeCache bounds every scene's parked lineages, registered now
// or later: at most capacity (≤ 0 disables resumption), each for ttl.
// Lineages already parked — restored from the journal, say — keep their
// expiry and stay, up to the new capacity.
func (r *Registry) SetResumeCache(capacity int, ttl time.Duration) {
	r.apply(func(sc *Scene) { sc.Sessions.setBounds(capacity, ttl) })
}

// SetSessionJournal makes j the durable mirror of every scene's parked
// lineages, registered now or later, so they survive a restart. Call
// before Restore and before serving; nil detaches.
func (r *Registry) SetSessionJournal(j *SessionJournal) {
	r.apply(func(sc *Scene) { sc.Sessions.setJournal(j) })
}
