package engine

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/workload"
)

func testDataset(t testing.TB, n int, seed int64) *workload.Dataset {
	t.Helper()
	return workload.Generate(workload.Spec{
		NumObjects: n, Levels: 3, Seed: seed, DropFinals: true})
}

// buildRegistry builds a two-scene registry ("city" default, "park")
// over small generated datasets.
func buildRegistry(t testing.TB, st *stats.Stats) *Registry {
	t.Helper()
	reg := NewRegistry()
	for i, name := range []string{"city", "park"} {
		if _, err := reg.Build(SceneConfig{
			Name: name, Dataset: testDataset(t, 2+i, int64(i+1)),
			Levels: 3, Shards: 1 + i, Stats: st}); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func TestSaveAllLoadAllRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st := stats.New()
	reg := buildRegistry(t, st)
	if err := reg.SaveAll(dir, st); err != nil {
		t.Fatalf("SaveAll: %v", err)
	}
	snap := st.Snapshot()
	if snap.Get(stats.EngineCheckpoints) != 2 || snap.Get(stats.EngineCheckpointBytes) <= 0 {
		t.Fatalf("checkpoint counters = %d / %d bytes", snap.Get(stats.EngineCheckpoints), snap.Get(stats.EngineCheckpointBytes))
	}

	st2 := stats.New()
	reg2 := NewRegistry()
	n, err := reg2.LoadAll(dir, st2)
	if err != nil || n != 2 {
		t.Fatalf("LoadAll = %d, %v", n, err)
	}
	snap2 := st2.Snapshot()
	if snap2.Get(stats.EngineTailsTruncated) != 0 || snap2.Get(stats.EngineRecordsQuarantined) != 0 {
		t.Fatalf("clean load reported damage: %+v", snap2)
	}
	if snap2.Get(stats.EngineRecordsReplayed) != 4 { // 2 scenes × (meta + dataset)
		t.Fatalf("RecordsReplayed = %d, want 4", snap2.Get(stats.EngineRecordsReplayed))
	}
	// Order, shape, and content survive.
	if def := reg2.Default(); def == nil || def.Name != "city" {
		t.Fatalf("default scene = %v", reg2.Names())
	}
	for _, name := range []string{"city", "park"} {
		orig, _ := reg.Get(name)
		got, ok := reg2.Get(name)
		if !ok {
			t.Fatalf("scene %q lost", name)
		}
		if got.Levels != orig.Levels || got.Shards != orig.Shards {
			t.Fatalf("scene %q: levels %d/%d shards %d/%d",
				name, got.Levels, orig.Levels, got.Shards, orig.Shards)
		}
		if got.Source.NumCoeffs() != orig.Source.NumCoeffs() {
			t.Fatalf("scene %q: %d coeffs, want %d",
				name, got.Source.NumCoeffs(), orig.Source.NumCoeffs())
		}
		if got.Dataset == nil {
			t.Fatalf("scene %q restored without dataset", name)
		}
	}
}

// TestLoadAllTornTailRecovers tears a scene file's tail and boots twice:
// the first LoadAll truncates the tail without inventing data, so the
// second reads the file clean and the file is back to the size SaveAll
// wrote. A scene file is never rewritten, so without the repair the
// same tail would be counted again at every later boot.
func TestLoadAllTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	st := stats.New()
	reg := buildRegistry(t, st)
	if err := reg.SaveAll(dir, st); err != nil {
		t.Fatal(err)
	}
	// Tear the city scene file: append a partial record, as a crash
	// during a (hypothetical) in-place write would.
	path := CheckpointPath(dir, "city")
	written, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xAB}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	orig, _ := reg.Get("city")
	for boot, wantTails := range []int64{1, 0} {
		st2 := stats.New()
		reg2 := NewRegistry()
		n, err := reg2.LoadAll(dir, st2)
		if err != nil || n != 2 {
			t.Fatalf("boot %d: LoadAll = %d, %v", boot, n, err)
		}
		if got := st2.Load(stats.EngineTailsTruncated); got != wantTails {
			t.Fatalf("boot %d: TailsTruncated = %d, want %d", boot, got, wantTails)
		}
		// Nothing invented: the scene's content matches the original.
		got, _ := reg2.Get("city")
		if got.Source.NumCoeffs() != orig.Source.NumCoeffs() {
			t.Fatalf("boot %d: torn-tail load changed content: %d vs %d coeffs",
				boot, got.Source.NumCoeffs(), orig.Source.NumCoeffs())
		}
	}
	repaired, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Size() != written.Size() {
		t.Fatalf("repaired file is %d B, SaveAll wrote %d B", repaired.Size(), written.Size())
	}
}

func TestLoadAllSkipsHopelessFile(t *testing.T) {
	dir := t.TempDir()
	st := stats.New()
	reg := buildRegistry(t, st)
	if err := reg.SaveAll(dir, st); err != nil {
		t.Fatal(err)
	}
	// Destroy the park checkpoint's header entirely.
	if err := os.WriteFile(CheckpointPath(dir, "park"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := stats.New()
	reg2 := NewRegistry()
	n, err := reg2.LoadAll(dir, st2)
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if n != 1 {
		t.Fatalf("loaded %d scenes, want just the intact one", n)
	}
	if _, ok := reg2.Get("city"); !ok {
		t.Fatal("intact scene lost")
	}
}

func TestLoadAllEmptyDir(t *testing.T) {
	reg := NewRegistry()
	n, err := reg.LoadAll(t.TempDir(), stats.New())
	if err != nil || n != 0 {
		t.Fatalf("empty dir: n=%d err=%v", n, err)
	}
}

func TestSceneWithoutDatasetSkipped(t *testing.T) {
	st := stats.New()
	reg := NewRegistry()
	if _, err := reg.Build(SceneConfig{
		Name: "bare", Source: testStore(t, 2, 9), Levels: 3, Stats: st}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := reg.SaveAll(dir, st); err != nil {
		t.Fatal(err)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "scene-*")); len(matches) != 0 {
		t.Fatalf("bare scene checkpointed: %v", matches)
	}
	if st.Load(stats.EngineCheckpoints) != 0 {
		t.Fatal("checkpoint counter moved for a bare scene")
	}
}

func TestSessionJournalParkTakeRestore(t *testing.T) {
	st := stats.New()
	reg := buildRegistry(t, st)
	path := filepath.Join(t.TempDir(), SessionJournalFile)
	j, err := OpenSessionJournal(path, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetSessionJournal(j)

	city, _ := reg.Get("city")
	park, _ := reg.Get("park")

	// Park two lineages with distinct state; take one back.
	e1 := serve(city, 101)
	e1.Session.Retrieve([]retrieval.SubQuery{{Region: city.Source.Bounds().XY(), WMin: 0, WMax: 1}})
	if e1.Session.Delivered() == 0 {
		t.Fatal("test session delivered nothing")
	}
	e1.Seq, e1.LastIDs = 3, []int64{1, 2}
	want := e1.Session.DeliveredIDs()
	city.Sessions.Drop(101)

	serve(park, 202).Seq = 1
	park.Sessions.Drop(202)

	serve(city, 303).Seq = 2
	city.Sessions.Drop(303)
	if _, ok := take(city, 303); !ok {
		t.Fatal("take failed")
	}
	if got := j.Live(); got != 2 {
		t.Fatalf("Live = %d, want 2", got)
	}
	j.Close()

	// "Restart": fresh registry from the same datasets, journal replayed.
	st2 := stats.New()
	reg2 := buildRegistry(t, st2)
	j2, err := OpenSessionJournal(path, 0, st2)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Live() != 2 {
		t.Fatalf("journal reopened with %d live parks, want 2 (three parks, one take)", j2.Live())
	}
	reg2.SetSessionJournal(j2)
	if restored := j2.Restore(reg2); restored != 2 {
		t.Fatalf("Restore = %d, want 2", restored)
	}
	if st2.Load(stats.EngineRecordsReplayed) == 0 {
		t.Fatal("replay not counted")
	}

	city2, _ := reg2.Get("city")
	seq, lastIDs, restored := city2.Sessions.entries[101].lin.Seq, len(city2.Sessions.entries[101].lin.LastIDs), city2.Sessions.entries[101].lin.Restored
	got, ok := take(city2, 101)
	if !ok {
		t.Fatal("restored session not resumable")
	}
	if !restored || seq != 3 || lastIDs != 2 || got.Seq != 3 {
		t.Fatalf("restored lineage: restored %v, seq %d, %d rollback candidates", restored, seq, lastIDs)
	}
	if got.Session.Delivered() != len(want) {
		t.Fatalf("delivered set %d, want %d", got.Session.Delivered(), len(want))
	}
	for _, id := range want {
		if !got.Session.Has(id) {
			t.Fatalf("restored session missing id %d", id)
		}
	}
	// The taken token must not come back on a second restore pass.
	park2, _ := reg2.Get("park")
	if park2.Sessions.Parked() != 1 {
		t.Fatalf("park table = %d parked, want 1", park2.Sessions.Parked())
	}
	if _, ok := take(city2, 303); ok {
		t.Fatal("tombstoned session resurrected")
	}
}

func TestSessionJournalExpiredNotRestored(t *testing.T) {
	st := stats.New()
	reg := buildRegistry(t, st)
	reg.SetResumeCache(16, time.Millisecond)
	path := filepath.Join(t.TempDir(), SessionJournalFile)
	j, err := OpenSessionJournal(path, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetSessionJournal(j)
	city, _ := reg.Get("city")
	serve(city, 7)
	city.Sessions.Drop(7)
	j.Close()
	time.Sleep(5 * time.Millisecond)

	st2 := stats.New()
	reg2 := buildRegistry(t, st2)
	j2, err := OpenSessionJournal(path, 0, st2)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if restored := j2.Restore(reg2); restored != 0 {
		t.Fatalf("expired session restored (%d)", restored)
	}
	if j2.Live() != 0 {
		t.Fatalf("the expired record is still live in the journal (%d)", j2.Live())
	}
}

// TestParkJournaledBeforeTakeable races a resume against a park: the
// taker changes the lineage the moment it holds it, as a resume's
// rollback does, so the park must be encoded before the lineage can be
// taken (-race reports the encode otherwise) and its tombstone must
// follow it: the journal ends with no live session.
func TestParkJournaledBeforeTakeable(t *testing.T) {
	st := stats.New()
	reg := buildRegistry(t, st)
	j, err := OpenSessionJournal(filepath.Join(t.TempDir(), SessionJournalFile), 0, st)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	reg.SetSessionJournal(j)
	city, _ := reg.Get("city")
	const self = 1 << 40
	city.Sessions.Greet(self, nopConn{}, nil)
	for token := uint64(1); token <= 100; token++ {
		spinning, taken := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(taken)
			for i := 0; ; i++ {
				if l, ok := city.Sessions.Resume(self, token, 1, 0); ok {
					l.Seq--
					return
				}
				if i == 0 {
					close(spinning)
				}
				runtime.Gosched()
			}
		}()
		<-spinning
		serve(city, token).Seq = 1
		city.Sessions.Drop(token)
		<-taken
	}
	if n := j.Live(); n != 0 {
		t.Fatalf("%d taken sessions still live in the journal", n)
	}
}

func TestSessionJournalCompaction(t *testing.T) {
	st := stats.New()
	reg := buildRegistry(t, st)
	path := filepath.Join(t.TempDir(), SessionJournalFile)
	// Tiny bound so churn triggers compaction quickly.
	j, err := OpenSessionJournal(path, 4096, st)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetSessionJournal(j)
	city, _ := reg.Get("city")
	for i := uint64(1); i <= 200; i++ {
		serve(city, i).Seq = int64(i)
		city.Sessions.Drop(i)
		if i > 1 {
			take(city, i-1)
		}
	}
	if st.Load(stats.EngineJournalCompactions) == 0 {
		t.Fatal("no compaction despite churn past the bound")
	}
	if size := j.j.Size(); size > 64*1024 {
		t.Fatalf("journal grew unboundedly: %d bytes", size)
	}
	j.Close()

	// The compacted journal still replays to exactly the live set.
	st2 := stats.New()
	reg2 := buildRegistry(t, st2)
	j2, err := OpenSessionJournal(path, 4096, st2)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if restored := j2.Restore(reg2); restored != 1 {
		t.Fatalf("Restore after compaction = %d, want 1", restored)
	}
	city2, _ := reg2.Get("city")
	if e, ok := take(city2, 200); !ok || e.Seq != 200 {
		t.Fatalf("survivor = %+v ok=%v", e, ok)
	}
}

func TestSessionJournalKillFreezesDisk(t *testing.T) {
	st := stats.New()
	reg := buildRegistry(t, st)
	path := filepath.Join(t.TempDir(), SessionJournalFile)
	j, err := OpenSessionJournal(path, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetSessionJournal(j)
	city, _ := reg.Get("city")
	serve(city, 1)
	city.Sessions.Drop(1)
	j.Kill()
	// Post-kill parks still work in memory but never reach disk.
	serve(city, 2)
	city.Sessions.Drop(2)
	if city.Sessions.Parked() != 2 {
		t.Fatalf("in-memory table = %d parked, want 2", city.Sessions.Parked())
	}
	if j.Live() != 1 {
		t.Fatalf("Live = %d, want 1 (the post-kill park is not durable)", j.Live())
	}
	j.Close()

	st2 := stats.New()
	j2, err := OpenSessionJournal(path, 0, st2)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Live() != 1 {
		t.Fatalf("disk has %d live sessions, want 1", j2.Live())
	}
}
