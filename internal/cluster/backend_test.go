package cluster

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/workload"
)

// samePages fails t unless two segment images hold the same pages byte
// for byte, and returns how many they hold.
func samePages(t *testing.T, a, b []byte) int {
	t.Helper()
	sa, err := persist.NewSegmentBytes(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := persist.NewSegmentBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	end := sa.PageOffset(sa.NumPages())
	if sa.NumPages() != sb.NumPages() || sa.PageSize() != sb.PageSize() || !bytes.Equal(a[:end], b[:end]) {
		t.Fatalf("segments differ in their pages: %d and %d pages of %d and %d B",
			sa.NumPages(), sb.NumPages(), sa.PageSize(), sb.PageSize())
	}
	return sa.NumPages()
}

// startDurable boots a backend on dir with the given recipe (nil: none).
func startDurable(t *testing.T, dir string, st *stats.Stats, pageCache int64, scenes ...engine.SceneConfig) *Backend {
	t.Helper()
	cfg := BackendConfig{DataDir: dir, Stats: st, Logf: t.Logf, PageCacheBytes: pageCache}
	if scenes != nil {
		cfg.Scenes = Scenes(scenes...)
	}
	b, err := StartBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRestartKeepsRegistryOrder: a restart from the data directory
// alone serves every scene again in the recipe's order, not the names'
// (park, registered first, stays the default), with the levels and
// shard count each was built with, and writes no segment.
func TestRestartKeepsRegistryOrder(t *testing.T) {
	dir := t.TempDir()
	st := stats.New()
	park := sceneConfig(t, sceneSpec{"park", 8}, st)
	park.Shards = 3
	b := startDurable(t, dir, st, 0, park, sceneConfig(t, sceneSpec{"city", 7}, st))
	b.Stop()
	if st.Load(stats.EngineCheckpoints) != 2 {
		t.Fatalf("first boot wrote %d segments, want 2", st.Load(stats.EngineCheckpoints))
	}

	st2 := stats.New()
	b = startDurable(t, dir, st2, 0)
	defer b.Stop()
	if names := b.Registry().Names(); len(names) != 2 || names[0] != "park" || b.Registry().Default().Name != "park" {
		t.Fatalf("restart serves %v, default %q; want park first", names, b.Registry().Default().Name)
	}
	for name, shards := range map[string]int{"park": 3, "city": 2} {
		sc, _ := b.Registry().Get(name)
		if sc.Levels != 3 || sc.Index.(*index.Sharded).NumShards() != shards {
			t.Errorf("scene %q restored with %d levels, %d shards; want 3, %d",
				name, sc.Levels, sc.Index.(*index.Sharded).NumShards(), shards)
		}
	}
	if st2.Load(stats.EngineCheckpoints) != 0 {
		t.Fatalf("the restart wrote %d segments", st2.Load(stats.EngineCheckpoints))
	}
}

// TestEmptyDataDirServesNothing: a durable backend booted on an empty
// directory with no recipe serves no scene and writes no segment.
func TestEmptyDataDirServesNothing(t *testing.T) {
	dir := t.TempDir()
	st := stats.New()
	b := startDurable(t, dir, st, 0)
	defer b.Stop()
	if n := b.Registry().Len(); n != 0 {
		t.Fatalf("an empty directory serves %d scenes", n)
	}
	if n := st.Load(stats.EngineCheckpoints); n != 0 {
		t.Fatalf("an empty directory wrote %d segments", n)
	}
}

// writeDamaged boots a backend on dir that writes city's segment, and
// returns the segment as written and a copy with a corrupt first page.
func writeDamaged(t *testing.T, dir string, city engine.SceneConfig) (written, damaged []byte) {
	t.Helper()
	startDurable(t, dir, stats.New(), 0, city).Stop()
	written, err := os.ReadFile(SegmentPath(dir, "city"))
	if err != nil {
		t.Fatal(err)
	}
	seg, err := persist.NewSegmentBytes(written)
	if err != nil {
		t.Fatal(err)
	}
	damaged = append([]byte(nil), written...)
	damaged[seg.PageOffset(0)+3] ^= 0xFF
	return written, damaged
}

// TestDamagedSegmentRewrittenFromRecipe: a restart refuses a segment
// with a corrupt page, counts it in engine.records_quarantined, and
// rewrites it from the recipe byte for byte.
func TestDamagedSegmentRewrittenFromRecipe(t *testing.T) {
	dir := t.TempDir()
	city := sceneConfig(t, sceneSpec{"city", 7}, nil)
	written, damaged := writeDamaged(t, dir, city)
	path := SegmentPath(dir, "city")
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	st := stats.New()
	b := startDurable(t, dir, st, 0, city)
	defer b.Stop()
	if q := st.Load(stats.EngineRecordsQuarantined); q != 1 {
		t.Fatalf("records_quarantined = %d, want the damaged segment", q)
	}
	if names := b.Registry().Names(); len(names) != 1 || names[0] != "city" {
		t.Fatalf("serving %v, want [city]", names)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, written) || st.Load(stats.EngineCheckpoints) != 1 {
		t.Fatalf("rewrote the segment %d times, byte-identical %v", st.Load(stats.EngineCheckpoints), bytes.Equal(again, written))
	}
}

// TestStraySegmentRefused: a damaged segment the recipe does not name
// is refused, counted in engine.records_quarantined and not served,
// while the intact scenes beside it still are.
func TestStraySegmentRefused(t *testing.T) {
	dir := t.TempDir()
	city := sceneConfig(t, sceneSpec{"city", 7}, nil)
	_, damaged := writeDamaged(t, dir, city)
	if err := os.WriteFile(SegmentPath(dir, "stray"), damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	st := stats.New()
	b := startDurable(t, dir, st, 0)
	defer b.Stop()
	if q := st.Load(stats.EngineRecordsQuarantined); q != 1 {
		t.Fatalf("records_quarantined = %d, want the stray segment", q)
	}
	if names := b.Registry().Names(); len(names) != 1 || names[0] != "city" {
		t.Fatalf("serving %v, want [city]", names)
	}
	if n := st.Load(stats.EngineCheckpoints); n != 0 {
		t.Fatalf("the restart wrote %d segments", n)
	}
}

// TestAdoptedSceneRestoresAfterOwnScenes: a backend serving zeta adopts
// alpha, the default of its source; restarted, it still defaults to
// zeta, and alpha comes second.
func TestAdoptedSceneRestoresAfterOwnScenes(t *testing.T) {
	root := t.TempDir()
	src := startDurable(t, filepath.Join(root, "src"), stats.New(), 0, sceneConfig(t, sceneSpec{"alpha", 3}, nil))
	defer src.Stop()
	dstDir := filepath.Join(root, "dst")
	dst := startDurable(t, dstDir, stats.New(), 0, sceneConfig(t, sceneSpec{"zeta", 4}, nil))
	seg, sessions, err := src.ExportScene("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.AdoptScene("alpha", seg, sessions); err != nil {
		t.Fatal(err)
	}
	dst.Stop()

	dst = startDurable(t, dstDir, stats.New(), 0)
	defer dst.Stop()
	if names := dst.Registry().Names(); len(names) != 2 || names[0] != "zeta" {
		t.Fatalf("restarted adopter serves %v; want zeta, its own scene, as the default", names)
	}
}

// TestStopClosesPagedStores: Stop closes every paged store the backend
// opened, so a read of its segment afterwards is refused.
func TestStopClosesPagedStores(t *testing.T) {
	b := startDurable(t, t.TempDir(), stats.New(), 1<<20, sceneConfig(t, sceneSpec{"city", 7}, nil))
	ps, ok := b.Registry().Default().Source.(*index.PagedStore)
	if !ok {
		b.Stop()
		t.Fatalf("a paged backend serves a %T", b.Registry().Default().Source)
	}
	b.Stop()
	if _, err := ps.Segment().ReadPage(0, nil); !errors.Is(err, persist.ErrSegmentClosed) {
		t.Fatalf("segment read after Stop = %v, want ErrSegmentClosed", err)
	}
}

// TestDrainPagedScene drains a paged scene between two paged backends:
// the adopter answers a tour with the coefficient counts and meshes the
// source answered it with, and the source closes its copy.
func TestDrainPagedScene(t *testing.T) {
	root := t.TempDir()
	const cache = 64 << 10
	city := sceneSpec{"city", 7}
	b1 := startDurable(t, filepath.Join(root, "b1"), stats.New(), cache, sceneConfig(t, city, nil))
	defer b1.Stop()
	b2 := startDurable(t, filepath.Join(root, "b2"), stats.New(), cache, sceneConfig(t, sceneSpec{"park", 8}, nil))
	defer b2.Stop()
	srcStore := b1.Registry().Default().Source.(*index.PagedStore)

	d := workload.Generate(workload.Spec{NumObjects: 24, Levels: 3, Seed: city.seed})
	// A tour, then one window over the whole scene at full detail.
	frames := append(tourFrames(d, 5, 24), frame{q: d.Store.Bounds().XY()})
	tour := func(addr string) (*proto.Client, []int) {
		c, err := proto.DialScene(addr, "city", nil)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, len(frames))
		for i, f := range frames {
			if counts[i], err = c.Frame(f.q, f.speed); err != nil {
				t.Fatalf("frame %d on %s: %v", i, addr, err)
			}
		}
		return c, counts
	}
	before, beforeCounts := tour(b1.Addr())
	defer before.Close()

	top := &Topology{
		Order:    []string{"city", "park"},
		Replicas: map[string][]string{"city": {b1.Addr()}, "park": {b2.Addr()}},
	}
	gw, _ := startGateway(t, top, stats.New(), 0)
	if _, err := NewController(gw, []*Backend{b1, b2}, stats.New()).Drain("city", b2.Addr()); err != nil {
		t.Fatalf("drain of a paged scene: %v", err)
	}
	sc, ok := b2.Registry().Get("city")
	if !ok {
		t.Fatal("the adopter does not serve the drained scene")
	}
	if _, paged := sc.Source.(*index.PagedStore); !paged {
		t.Fatalf("the adopter serves the drained scene from a %T", sc.Source)
	}
	after, afterCounts := tour(b2.Addr())
	defer after.Close()
	for i := range beforeCounts {
		if beforeCounts[i] != afterCounts[i] {
			t.Fatalf("frame %d: the adopter sent %d coefficients, the source %d", i, afterCounts[i], beforeCounts[i])
		}
	}
	assertMeshesMatch(t, "adopter", before, after)
	if _, err := srcStore.Segment().ReadPage(0, nil); !errors.Is(err, persist.ErrSegmentClosed) {
		t.Fatalf("the source's store after the drain: %v, want closed", err)
	}
}
