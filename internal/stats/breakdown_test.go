package stats

import (
	"flag"
	"strings"
	"sync"
	"testing"
	"time"
)

// addScene records one request into a scene's row, as retrieval does.
func addScene(s *Stats, scene string, io, coeffs, bytes int64) {
	row := s.Label(Scenes, scene)
	row.Add(SceneRequests, 1)
	row.Add(SceneNodeIO, io)
	row.Add(SceneCoeffs, coeffs)
	row.Add(SceneBytes, bytes)
}

func TestSceneBreakdown(t *testing.T) {
	s := New()
	addScene(s, "", 1, 1, 1) // unnamed scene: dropped
	addScene(s, "city", 10, 5, 500)
	addScene(s, "city", 2, 1, 100)
	addScene(s, "park", 7, 3, 300)
	s.Label(Backends, "10.0.0.1:7444").Add(BackendProbes, 2)
	snap := s.Snapshot()
	if city := snap.Scenes["city"]; city != (RowValues{2, 12, 6, 600}) {
		t.Fatalf("city = %v", city)
	}
	if park := snap.Scenes["park"]; park[SceneRequests] != 1 || park[SceneNodeIO] != 7 {
		t.Fatalf("park = %v", park)
	}
	if len(snap.Scenes) != 2 || len(snap.Backends) != 1 {
		t.Fatalf("scenes = %v, backends = %v", snap.Scenes, snap.Backends)
	}
	str := snap.String()
	for _, want := range []string{
		"scenes city[requests 2 node_io 12 coeffs 6 bytes 600] park[",
		"backends 10.0.0.1:7444[routes 0 failovers 0 probes 2 probe_fails 0]",
	} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() missing %q: %s", want, str)
		}
	}
}

func TestShardBreakdown(t *testing.T) {
	s := New()
	addShard := func(i int, io int64) {
		row := s.Shard(i)
		row.Add(ShardSearches, 1)
		row.Add(ShardNodeIO, io)
	}
	addShard(0, 5) // before EnsureShards: dropped
	s.EnsureShards(4)
	s.EnsureShards(2) // shrinking is a no-op
	addShard(1, 10)
	addShard(1, 4)
	addShard(3, 7)
	addShard(9, 99) // out of range: dropped
	snap := s.Snapshot()
	if len(snap.Shards) != 4 {
		t.Fatalf("shards = %v", snap.Shards)
	}
	if sh := snap.Shards[1]; sh[ShardSearches] != 2 || sh[ShardNodeIO] != 14 {
		t.Fatalf("shard 1 = %v", sh)
	}
	if sh := snap.Shards[3]; sh[ShardSearches] != 1 || sh[ShardNodeIO] != 7 {
		t.Fatalf("shard 3 = %v", sh)
	}
	if sh := snap.Shards[0]; sh[ShardSearches] != 0 {
		t.Fatalf("shard 0 = %v", sh)
	}
	if str := snap.String(); !strings.Contains(str, "shards 4 (searches 3 node_io 21 hottest #1 node_io 14)") {
		t.Fatalf("String() missing shard section: %s", str)
	}
}

func TestShardGrowthKeepsCounts(t *testing.T) {
	s := New()
	s.EnsureShards(2)
	s.Shard(1).Add(ShardNodeIO, 3)
	s.EnsureShards(8)
	s.Shard(1).Add(ShardNodeIO, 2)
	s.Shard(7).Add(ShardNodeIO, 1)
	snap := s.Snapshot()
	if sh := snap.Shards[1]; sh[ShardNodeIO] != 5 {
		t.Fatalf("counts lost across growth: %v", sh)
	}
	if sh := snap.Shards[7]; sh[ShardNodeIO] != 1 {
		t.Fatalf("shard 7 = %v", sh)
	}
}

func TestBreakdownConcurrent(t *testing.T) {
	s := New()
	s.EnsureShards(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				addScene(s, "s", 1, 1, 1)
				s.Shard(g).Add(ShardSearches, 1)
			}
		}(g)
	}
	wg.Wait()
	snap := s.Snapshot()
	if sc := snap.Scenes["s"]; sc[SceneRequests] != 8000 {
		t.Fatalf("scene requests = %d", sc[SceneRequests])
	}
	var total int64
	for _, sh := range snap.Shards {
		total += sh[ShardSearches]
	}
	if total != 8000 {
		t.Fatalf("shard searches = %d", total)
	}
}

func TestFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterFlags(fs, 0)
	if err := fs.Parse([]string{"-stats", "1h", "-stats-dump"}); err != nil {
		t.Fatal(err)
	}
	if f.Interval != time.Hour || !f.Dump {
		t.Fatalf("flags = %+v", f)
	}

	var lines []string
	var mu sync.Mutex
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, format)
		mu.Unlock()
	}
	s := New()
	stop := f.Start(s, logf)
	stop()
	mu.Lock()
	n := len(lines)
	mu.Unlock()
	if n != 1 { // final dump only; 1h ticker never fired
		t.Fatalf("dump lines = %d", n)
	}

	var nilf *Flags
	nilf.Start(s, logf)() // must not panic
	f.Start(nil, logf)()
}
