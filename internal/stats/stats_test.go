package stats

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRowNames pins the table's naming contract: every row and histogram
// has a unique, non-empty dotted "layer.quantity" name.
func TestRowNames(t *testing.T) {
	valid := regexp.MustCompile(`^[a-z]+\.[a-z0-9_]+$`)
	seen := map[string]bool{}
	names := append(counterNames[:], histNames[:]...)
	for i, name := range names {
		if !valid.MatchString(name) {
			t.Errorf("row %d: name %q is not layer.quantity", i, name)
		}
		if seen[name] {
			t.Errorf("row %d: name %q is not unique", i, name)
		}
		seen[name] = true
	}
}

// TestNilStatsIsSafe records into every row, histogram and breakdown of
// a nil collector.
func TestNilStatsIsSafe(t *testing.T) {
	var s *Stats
	for c := Counter(0); c < numCounters; c++ {
		s.Add(c, 1)
		s.Set(c, 1)
		if s.Load(c) != 0 {
			t.Fatalf("nil %s nonzero", counterNames[c])
		}
	}
	for h := Hist(0); h < numHists; h++ {
		s.Observe(h, 1)
	}
	s.AddSource(func(v *Values) { v[HotHits]++ })
	s.Label(Scenes, "a").Add(SceneRequests, 1)
	s.EnsureShards(4)
	s.Shard(0).Add(ShardSearches, 1)
	if got := s.Snapshot(); got.V != (Values{}) || got.Scenes != nil || got.Shards != nil || got.String() != "" {
		t.Fatalf("nil snapshot = %+v", got)
	}
	s.StartLogging(time.Millisecond, t.Logf)() // stop immediately; must not panic
}

// TestCountersAccumulate is the table-driven test of the recording
// surface: each case records into a fresh collector, and the snapshot
// must hold exactly the rows it names — every other row stays zero.
func TestCountersAccumulate(t *testing.T) {
	cases := []struct {
		name   string
		record func(s *Stats)
		want   map[Counter]int64
		hists  map[Hist]int64 // observation counts
	}{{
		name: "sessions",
		record: func(s *Stats) {
			s.Add(ProtoSessionsOpened, 2)
			s.Add(ProtoSessionsActive, 2)
			s.Add(ProtoSessionsActive, -1)
			s.Add(ProtoErrors, 1)
		},
		want: map[Counter]int64{ProtoSessionsOpened: 2, ProtoSessionsActive: 1, ProtoErrors: 1},
	}, {
		name: "requests",
		record: func(s *Stats) {
			recordFrame(s, nil, 4, 12, 7, 2*time.Millisecond)
			recordFrame(s, nil, 1, 3, 0, time.Millisecond)
			s.Add(BufferHits, 5)
			s.Add(BufferMisses, 2)
			s.Add(BufferDemandBytes, 96)
			s.Add(BufferPrefetchBytes, 48)
		},
		want: map[Counter]int64{RetrievalRequests: 2, RetrievalSubQueries: 5, RetrievalNodeIO: 15,
			RetrievalCoeffs: 7, RetrievalBytes: 7 * 48, RetrievalFirstTouches: 5,
			BufferHits: 5, BufferMisses: 2, BufferDemandBytes: 96, BufferPrefetchBytes: 48},
		hists: map[Hist]int64{RetrievalExecuteNs: 2, RetrievalRequestNodeIO: 2},
	}, {
		name: "gauges",
		record: func(s *Stats) {
			s.Set(ClientABRBudget, 4096)
			s.Set(ClientABRBudget, 1024) // overwrites
			s.Set(ClientABRRTTNs, int64(3*time.Millisecond))
		},
		want: map[Counter]int64{ClientABRBudget: 1024, ClientABRRTTNs: int64(3 * time.Millisecond)},
	}, {
		name: "sources sum",
		record: func(s *Stats) {
			for _, hits := range []int64{3, 4} {
				s.AddSource(func(v *Values) {
					v[HotHits] += hits
					v[HotEntries]++
				})
			}
			s.Add(HotHits, 1) // recorded rows and sources add too
		},
		want: map[Counter]int64{HotHits: 8, HotEntries: 2},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			tc.record(s)
			checkRows(t, s.Snapshot(), tc.want, tc.hists)
		})
	}
}

// TestResilienceCounters records what the resilient client, the server's
// shedding and resume paths and the fault injectors record; the snapshot
// holds exactly those rows and its summary line lists them.
func TestResilienceCounters(t *testing.T) {
	s := New()
	for _, d := range []time.Duration{10 * time.Millisecond, 80 * time.Millisecond} {
		s.Add(ClientRetries, 1)
		s.Observe(ClientBackoffNs, int64(d))
	}
	s.Add(ClientTimeouts, 1)
	s.Add(ClientResumes, 2)
	s.Add(ClientReplans, 1)
	s.Add(ClientSplitFrames, 1)
	s.Add(ClientPieces, 4)
	s.Add(ProtoResumeHits, 2)
	s.Add(ProtoResumeMisses, 1)
	s.Add(ProtoShed, 1)
	s.Add(LinkFaults, 3)
	s.Add(DiskFaults, 2)

	got := s.Snapshot()
	checkRows(t, got, map[Counter]int64{ClientRetries: 2, ClientTimeouts: 1, ClientResumes: 2,
		ClientReplans: 1, ClientSplitFrames: 1, ClientPieces: 4, ProtoResumeHits: 2, ProtoResumeMisses: 1,
		ProtoShed: 1, LinkFaults: 3, DiskFaults: 2}, map[Hist]int64{ClientBackoffNs: 2})
	if b := got.H[ClientBackoffNs]; b.Max != int64(80*time.Millisecond) {
		t.Errorf("backoff histogram = %+v", b)
	}

	line := got.String()
	for _, want := range []string{"client.retries 2", "client.split_frames 1", "client.pieces 4", "proto.resume_hits 2", "proto.resume_misses 1",
		"proto.shed 1", "link.faults 3", "disk.faults 2", "client.backoff_ns mean"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary %q missing %q", line, want)
		}
	}
}

// TestPersistenceCounters records what checkpointing, recovery, journal
// compaction and restored resumes record; the snapshot holds exactly
// those rows and its summary line lists them.
func TestPersistenceCounters(t *testing.T) {
	s := New()
	for _, b := range []int64{4096, 1024} {
		s.Add(EngineCheckpoints, 1)
		s.Add(EngineCheckpointBytes, b)
	}
	for _, r := range []struct{ replayed, truncated, quarantined int64 }{{7, 1, 2}, {3, 0, 0}} {
		s.Add(EngineRecordsReplayed, r.replayed)
		s.Add(EngineTailsTruncated, r.truncated)
		s.Add(EngineRecordsQuarantined, r.quarantined)
	}
	s.Add(EngineJournalCompactions, 1)
	s.Add(ProtoResumeHits, 1)
	s.Add(ProtoResumesRestored, 1)

	got := s.Snapshot()
	checkRows(t, got, map[Counter]int64{EngineCheckpoints: 2, EngineCheckpointBytes: 5120,
		EngineRecordsReplayed: 10, EngineTailsTruncated: 1, EngineRecordsQuarantined: 2,
		EngineJournalCompactions: 1, ProtoResumeHits: 1, ProtoResumesRestored: 1}, nil)
	if got.Get(ProtoResumesRestored) > got.Get(ProtoResumeHits) {
		t.Errorf("restored resumes %d exceed resume hits %d", got.Get(ProtoResumesRestored), got.Get(ProtoResumeHits))
	}

	line := got.String()
	for _, want := range []string{"engine.checkpoints 2", "engine.checkpoint_bytes 5120",
		"engine.records_replayed 10", "engine.tails_truncated 1", "engine.records_quarantined 2",
		"engine.journal_compactions 1", "proto.resumes_restored 1"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary %q missing %q", line, want)
		}
	}
}

// checkRows fails t unless got holds exactly the rows in want, every
// other row zero, and exactly hists observations in each histogram.
func checkRows(t *testing.T, got Snapshot, want map[Counter]int64, hists map[Hist]int64) {
	t.Helper()
	var all Values
	for c, v := range want {
		all[c] = v
	}
	for c := range all {
		if got.V[c] != all[c] {
			t.Errorf("%s = %d, want %d", counterNames[c], got.V[c], all[c])
		}
	}
	for h := range got.H {
		if n := got.H[h].Count; n != hists[Hist(h)] {
			t.Errorf("%s: %d observations, want %d", histNames[h], n, hists[Hist(h)])
		}
	}
}

// TestRecordingAllocs pins the hot path: recording a row or a histogram
// value allocates nothing.
func TestRecordingAllocs(t *testing.T) {
	s := New()
	s.EnsureShards(2)
	row := s.Label(Scenes, "city")
	if n := testing.AllocsPerRun(100, func() {
		s.Add(RetrievalRequests, 1)
		s.Observe(RetrievalExecuteNs, 1234)
		row.Add(SceneBytes, 48)
		s.Shard(1).Add(ShardNodeIO, 3)
	}); n != 0 {
		t.Fatalf("recording allocates %v per run", n)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != 1000*1001/2 || s.Max != 1000 {
		t.Fatalf("snapshot = %+v", s)
	}
	if m := s.Mean(); m < 500 || m > 501 {
		t.Errorf("mean = %v", m)
	}
	// Power-of-two buckets: the quantile bound must be ≥ the true value
	// and within 2× of it.
	for _, p := range []float64{0.25, 0.5, 0.9, 0.99} {
		truth := int64(p * 1000)
		q := s.Quantile(p)
		if q < truth || q > 2*truth {
			t.Errorf("q(%v) = %d, truth %d", p, q, truth)
		}
	}
	if s.Quantile(1.0) != 1000 {
		t.Errorf("q(1.0) = %d", s.Quantile(1.0))
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count != 2 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Buckets[0] != 2 {
		t.Fatalf("zero bucket = %d", s.Buckets[0])
	}
	if s.Quantile(0.5) != 0 {
		t.Fatalf("q(0.5) = %d", s.Quantile(0.5))
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Mean() != 0 || s.Quantile(0.99) != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
}

// TestConcurrentRecording hammers the recording surface from many
// goroutines; totals must be exact. Run under -race this also proves the
// collector is lock-free-safe.
func TestConcurrentRecording(t *testing.T) {
	s := New()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.Add(ProtoSessionsOpened, 1)
			s.Add(ProtoSessionsActive, 1)
			for i := 0; i < perWorker; i++ {
				recordFrame(s, nil, 2, 3, 1, time.Duration(i))
				s.Add(BufferHits, 1)
				s.Add(BufferPrefetchBytes, 16)
			}
			s.Add(ProtoSessionsActive, -1)
		}(w)
	}
	wg.Wait()
	got := s.Snapshot()
	total := int64(workers * perWorker)
	for c, want := range map[Counter]int64{
		RetrievalRequests: total, RetrievalSubQueries: 2 * total, RetrievalNodeIO: 3 * total,
		RetrievalCoeffs: total, RetrievalBytes: 48 * total, ProtoSessionsOpened: workers,
		ProtoSessionsActive: 0, BufferHits: total, BufferPrefetchBytes: 16 * total,
	} {
		if got.Get(c) != want {
			t.Errorf("%s = %d, want %d", counterNames[c], got.Get(c), want)
		}
	}
	lat := got.H[RetrievalExecuteNs]
	var bucketSum int64
	for _, b := range lat.Buckets {
		bucketSum += b
	}
	if lat.Count != total || bucketSum != total {
		t.Errorf("latency count %d, bucket sum %d, want %d", lat.Count, bucketSum, total)
	}
}

// TestSnapshotString pins the rendering: every nonzero row appears as
// "name value", and no zero row appears at all.
func TestSnapshotString(t *testing.T) {
	s := New()
	for c := Counter(0); c < numCounters; c += 3 {
		s.Add(c, int64(c)+1)
	}
	s.Observe(RetrievalExecuteNs, 120)
	line := s.Snapshot().String()
	for c := Counter(0); c < numCounters; c++ {
		has := strings.Contains(" · "+line+" · ", " · "+counterNames[c]+" ")
		if want := c%3 == 0; has != want {
			t.Errorf("row %s listed %v, want %v: %s", counterNames[c], has, want, line)
		}
		if c%3 == 0 && !strings.Contains(line, counterNames[c]+" "+strconv.Itoa(int(c)+1)) {
			t.Errorf("row %s missing its value: %s", counterNames[c], line)
		}
	}
	if !strings.Contains(line, "retrieval.execute_ns mean 120 p50 ≤120 p99 ≤120") {
		t.Errorf("histogram missing: %s", line)
	}
	if strings.Contains(line, "client.backoff_ns") {
		t.Errorf("empty histogram listed: %s", line)
	}
}

func TestStartLoggingEmitsAndStops(t *testing.T) {
	s := New()
	s.Add(RetrievalRequests, 1)
	var mu sync.Mutex
	var lines []string
	stop := s.StartLogging(5*time.Millisecond, func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, format)
		mu.Unlock()
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(lines)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no log line emitted")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}

// recordFrame writes the rows retrieval.execute writes for one request
// answered from first touches (row may be nil: an unnamed scene).
func recordFrame(s *Stats, row *Row, subs, io, coeffs int64, latency time.Duration) {
	bytes := coeffs * 48
	s.Add(RetrievalRequests, 1)
	s.Add(RetrievalSubQueries, subs)
	s.Add(RetrievalNodeIO, io)
	s.Add(RetrievalCoeffs, coeffs)
	s.Add(RetrievalBytes, bytes)
	s.Observe(RetrievalExecuteNs, int64(latency))
	s.Observe(RetrievalRequestNodeIO, io)
	row.Add(SceneRequests, 1)
	row.Add(SceneNodeIO, io)
	row.Add(SceneCoeffs, coeffs)
	row.Add(SceneBytes, bytes)
	s.Add(RetrievalFirstTouches, subs)
}

// BenchmarkRecordFrame is the per-request recording cost of
// retrieval.execute: the request rows, both histograms, the scene row
// and the first-touch row.
func BenchmarkRecordFrame(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		recordFrame(s, s.Label(Scenes, "city"), 4, 37, 120, 25*time.Microsecond)
	}
}
