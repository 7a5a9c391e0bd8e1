package engine

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/mesh"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/wavelet"
)

func testStore(t testing.TB, n int, seed int64) *index.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]*wavelet.Decomposition, n)
	for i := 0; i < n; i++ {
		ground := geom.V2(rng.Float64()*900+50, rng.Float64()*900+50)
		s := mesh.RandomBuilding(rng, ground, mesh.DefaultBuildingSpec())
		objs[i] = wavelet.Decompose(int32(i), mesh.BaseMeshFor(s), s, 3)
	}
	return index.NewStore(objs)
}

func TestValidateSceneName(t *testing.T) {
	for _, ok := range []string{"a", "city-01", "A.B_c", "x"} {
		if err := ValidateSceneName(ok); err != nil {
			t.Errorf("ValidateSceneName(%q) = %v", ok, err)
		}
	}
	long := make([]byte, MaxSceneName+1)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "has space", "sl/ash", "new\nline", string(long), "ü"} {
		if err := ValidateSceneName(bad); err == nil {
			t.Errorf("ValidateSceneName(%q) accepted", bad)
		}
	}
}

func TestRegistryBuildAndRouting(t *testing.T) {
	st := stats.New()
	reg := NewRegistry()
	city, err := reg.Build(SceneConfig{
		Name: "city", Source: testStore(t, 4, 1), Levels: 3, Shards: 4, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	park, err := reg.Build(SceneConfig{
		Name: "park", Source: testStore(t, 2, 2), Levels: 3, Shards: 1, Stats: st})
	if err != nil {
		t.Fatal(err)
	}

	if reg.Len() != 2 {
		t.Fatalf("Len = %d", reg.Len())
	}
	if got := reg.Default(); got != city {
		t.Fatalf("Default = %v, want first-added scene", got)
	}
	if sc, ok := reg.Get(""); !ok || sc != city {
		t.Fatal(`Get("") did not resolve to the default scene`)
	}
	if sc, ok := reg.Get("park"); !ok || sc != park {
		t.Fatal(`Get("park") failed`)
	}
	if _, ok := reg.Get("nope"); ok {
		t.Fatal("unknown scene resolved")
	}
	if names := reg.Names(); len(names) != 2 || names[0] != "city" || names[1] != "park" {
		t.Fatalf("Names = %v", names)
	}

	// Duplicate and invalid names are rejected.
	if _, err := reg.Build(SceneConfig{Name: "city", Source: city.Source}); err == nil {
		t.Fatal("duplicate scene accepted")
	}
	if _, err := reg.Build(SceneConfig{Name: "bad name", Source: city.Source}); err == nil {
		t.Fatal("invalid name accepted")
	}
	if _, err := reg.Build(SceneConfig{Name: "nosrc"}); err == nil {
		t.Fatal("nil source accepted")
	}

	// A scene's requests land in its own stats breakdown.
	sess := retrieval.NewSession(park.Server)
	sess.Retrieve([]retrieval.SubQuery{{Region: park.Source.Bounds().XY(), WMin: 0, WMax: 1}})
	snap := st.Snapshot()
	if park := snap.Scenes["park"]; park[stats.SceneRequests] != 1 || park[stats.SceneCoeffs] == 0 {
		t.Fatalf("park breakdown = %+v", snap.Scenes["park"])
	}
	if _, ok := snap.Scenes["city"]; ok {
		t.Fatal("city recorded a request it never served")
	}

	// Each scene has an independent session table.
	serve(city, 1)
	city.Sessions.Drop(1)
	serve(park, 2)
	park.Sessions.Drop(2)
	if n := city.Sessions.Parked() + park.Sessions.Parked(); n != 2 {
		t.Fatalf("Parked = %d", n)
	}
	if _, ok := take(park, 1); ok {
		t.Fatal("park resumed a city token")
	}
	reg.SetResumeCache(0, time.Minute) // disables resumption everywhere
	serve(city, 3)
	city.Sessions.Drop(3)
	if n := city.Sessions.Parked() + park.Sessions.Parked(); n != 0 {
		t.Fatalf("Parked after disable = %d", n)
	}
}

// TestResumeCacheBounds pins the session table's capacity and TTL
// behavior.
func TestResumeCacheBounds(t *testing.T) {
	reg := NewRegistry()
	sc, err := reg.Build(SceneConfig{Name: "city", Source: testStore(t, 2, 1), Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	sc.Sessions.now = func() time.Time { return now }
	drop := func(token uint64) {
		serve(sc, token)
		sc.Sessions.Drop(token)
	}

	reg.SetResumeCache(2, time.Minute)
	drop(1)
	drop(2)
	drop(3) // evicts token 1 (oldest)
	if n := sc.Sessions.Parked(); n != 2 {
		t.Fatalf("Parked = %d, want 2", n)
	}
	if _, ok := take(sc, 1); ok {
		t.Fatal("evicted token still resumable")
	}
	if _, ok := take(sc, 3); !ok {
		t.Fatal("fresh token not resumable")
	}
	if _, ok := take(sc, 3); ok {
		t.Fatal("token resumable twice")
	}

	// TTL expiry.
	reg.SetResumeCache(2, 10*time.Second)
	drop(7)
	now = now.Add(20 * time.Second)
	if _, ok := take(sc, 7); ok {
		t.Fatal("expired session resumed")
	}

	// A lineage that never served a frame, and a disabled table.
	sc.Sessions.Greet(8, nopConn{}, nil)
	sc.Sessions.Drop(8)
	reg.SetResumeCache(0, time.Minute)
	drop(9)
	if n := sc.Sessions.Parked(); n != 0 {
		t.Fatalf("%d lineages parked by an unstarted connection or a disabled table", n)
	}
}

// TestHotCacheWiring pins the hot-cache plumbing: the registry-wide
// enable attaches a cache to every scene's retrieval server and registers
// its counters as a stats gauge source, once per scene however often it
// is called, so repeated identical requests show up in the snapshot: the
// first ask as a first touch, the second as the store, the third as a
// hit.
func TestHotCacheWiring(t *testing.T) {
	st := stats.New()
	reg := NewRegistry()
	sc, err := reg.Build(SceneConfig{
		Name: "city", Source: testStore(t, 4, 1), Levels: 3, Shards: 2, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	other, err := reg.Build(SceneConfig{
		Name: "park", Source: testStore(t, 2, 2), Levels: 3, Shards: 1, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Server.HotCache() != nil || other.Server.HotCache() != nil {
		t.Fatal("cache wired before EnableHotCache")
	}
	reg.EnableHotCache(hotcache.Config{}, st)
	cache := sc.Server.HotCache()
	if cache == nil || other.Server.HotCache() == nil {
		t.Fatal("EnableHotCache skipped a scene")
	}
	// A second enable keeps each scene's cache (and its single stats
	// source).
	reg.EnableHotCache(hotcache.Config{}, st)
	if sc.Server.HotCache() != cache {
		t.Fatal("second EnableHotCache replaced a wired cache")
	}

	// Three asks on each scene: the rows sum both caches, each counted
	// once — a cache registered twice, or not at all, moves the sums.
	for _, s := range []*Scene{sc, other} {
		subs := []retrieval.SubQuery{{Region: s.Source.Bounds().XY(), WMin: 0, WMax: 1}}
		for i := 0; i < 3; i++ {
			s.Server.Execute(subs, nil, nil, 0)
		}
	}
	snap := st.Snapshot()
	if n, e, h := snap.Get(stats.RetrievalFirstTouches), snap.Get(stats.HotEntries), snap.Get(stats.HotHits); n != 2 || e != 2 || h != 2 {
		t.Fatalf("three asks on two scenes: %d first touches, %d entries, %d hits; want 2 of each", n, e, h)
	}
	if line := snap.String(); !strings.Contains(line, "hotcache.hits 2") || !strings.Contains(line, "retrieval.first_touches 2") {
		t.Fatalf("snapshot String omits the hot-cache or first-touch rows: %s", line)
	}
}

// TestSettingsReachLateScenes pins that the registry's settings reach a
// scene registered after they were set — the scene a drain's LoadScene
// adopts — and that a resume setting made after a journal restore keeps
// the restored sessions.
func TestSettingsReachLateScenes(t *testing.T) {
	st := stats.New()
	dir := t.TempDir()
	if err := buildRegistry(t, st).SaveAll(dir, st); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	reg.SetResumeCache(0, time.Minute)
	reg.EnableHotCache(hotcache.Config{}, st)
	reg.EnableCoalescer(retrieval.CoalescerConfig{}, st)
	sc, err := reg.LoadScene(CheckpointPath(dir, "park"), st)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Server.HotCache() == nil || sc.Server.Coalescer() == nil {
		t.Fatalf("late scene: hot cache %v, coalescer %v; want both", sc.Server.HotCache(), sc.Server.Coalescer())
	}
	serve(sc, 1)
	sc.Sessions.Drop(1)
	if n := sc.Sessions.Parked(); n != 0 {
		t.Fatalf("late scene parked %d sessions with resumption disabled", n)
	}

	// Park one session in a journal, restore it into a fresh registry,
	// then bound the caches: the restored session stays resumable.
	path := filepath.Join(dir, SessionJournalFile)
	j, err := OpenSessionJournal(path, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	first := buildRegistry(t, st)
	first.SetSessionJournal(j)
	city, _ := first.Get("city")
	serve(city, 7)
	city.Sessions.Drop(7)
	j.Close()

	j2, err := OpenSessionJournal(path, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	second := buildRegistry(t, st)
	second.SetSessionJournal(j2)
	if n := j2.Restore(second); n != 1 {
		t.Fatalf("Restore = %d, want 1", n)
	}
	second.SetResumeCache(8, time.Minute)
	city2, _ := second.Get("city")
	if _, ok := take(city2, 7); !ok {
		t.Fatal("a resume setting made after the restore dropped the restored session")
	}
}
