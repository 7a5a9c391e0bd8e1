package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/stats"
	"repro/internal/workload"
)

// checkpointExt names the per-scene checkpoint files in a data
// directory: scene-<name>.ckpt, with <name> guaranteed path-safe by
// ValidateSceneName.
const checkpointExt = ".ckpt"

// SessionJournalFile is the session journal's file name inside a data
// directory.
const SessionJournalFile = "sessions.journal"

// CheckpointPath returns the checkpoint file path for a scene name.
func CheckpointPath(dir, scene string) string {
	return filepath.Join(dir, "scene-"+scene+checkpointExt)
}

// checkpointMeta is the first record of a scene checkpoint: everything
// needed to rebuild the scene around the dataset payload in the second
// record.
type checkpointMeta struct {
	ordinal int // position in the registry order (0 = default scene)
	levels  int
	shards  int
	name    string
}

func encodeCheckpointMeta(m checkpointMeta) []byte {
	buf := make([]byte, 0, 14+len(m.name))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.ordinal))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.levels))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.shards))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.name)))
	buf = append(buf, m.name...)
	return buf
}

func decodeCheckpointMeta(p []byte) (checkpointMeta, error) {
	var m checkpointMeta
	if len(p) < 14 {
		return m, fmt.Errorf("engine: checkpoint meta too short")
	}
	m.ordinal = int(binary.LittleEndian.Uint32(p[0:4]))
	m.levels = int(binary.LittleEndian.Uint32(p[4:8]))
	m.shards = int(binary.LittleEndian.Uint32(p[8:12]))
	nameLen := int(binary.LittleEndian.Uint16(p[12:14]))
	if nameLen > MaxSceneName || 14+nameLen != len(p) {
		return m, fmt.Errorf("engine: checkpoint meta name overflow")
	}
	m.name = string(p[14 : 14+nameLen])
	return m, ValidateSceneName(m.name)
}

// SaveAll writes a durable checkpoint of every dataset-backed scene to
// dir (created if missing): one file per scene, each written atomically
// (temp + fsync + rename), holding a meta record and the dataset
// serialized with workload.Dataset.Save. Scenes registered without a
// Dataset (bare sources) have no serializable payload and are skipped.
// Checkpoint counters are recorded into st.
func (r *Registry) SaveAll(dir string, st *stats.Stats) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type job struct {
		meta checkpointMeta
		d    *workload.Dataset
	}
	r.mu.RLock()
	jobs := make([]job, 0, len(r.order))
	for i, name := range r.order {
		sc := r.scenes[name]
		if sc.Dataset == nil {
			continue
		}
		jobs = append(jobs, job{
			meta: checkpointMeta{ordinal: i, levels: sc.Levels, shards: sc.Shards, name: name},
			d:    sc.Dataset,
		})
	}
	r.mu.RUnlock()
	for _, jb := range jobs {
		var payload bytes.Buffer
		if err := jb.d.Save(&payload); err != nil {
			return fmt.Errorf("engine: checkpoint scene %q: %w", jb.meta.name, err)
		}
		written, err := persist.WriteFileAtomic(CheckpointPath(dir, jb.meta.name), func(w *persist.Writer) error {
			if err := w.WriteRecord(encodeCheckpointMeta(jb.meta)); err != nil {
				return err
			}
			return w.WriteRecord(payload.Bytes())
		})
		if err != nil {
			return fmt.Errorf("engine: checkpoint scene %q: %w", jb.meta.name, err)
		}
		st.Add(stats.EngineCheckpoints, 1)
		st.Add(stats.EngineCheckpointBytes, written)
	}
	return nil
}

// LoadAll rebuilds scenes from the checkpoints in dir, registering them
// in their original order (so the default scene stays the default).
// Damage never aborts the load: a torn or partly corrupt checkpoint
// contributes whatever records survive its CRCs, and a file left
// without both records is skipped — counted, never invented. Recovery
// tallies go to st; cfg supplies the per-scene knobs checkpoints do not
// carry (Stats). Returns the number of scenes loaded.
func (r *Registry) LoadAll(dir string, st *stats.Stats) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "scene-*"+checkpointExt))
	if err != nil {
		return 0, err
	}
	sort.Strings(matches)
	type loaded struct {
		meta checkpointMeta
		d    *workload.Dataset
	}
	var scenes []loaded
	for _, path := range matches {
		recs, rec, err := persist.ReadFile(path)
		recordRecovery(st, rec)
		if err != nil {
			// Unreadable header: the file is not a checkpoint; skip it.
			st.Add(stats.EngineRecordsQuarantined, 1)
			continue
		}
		if len(recs) < 2 {
			// Both records did not survive; nothing trustworthy to load.
			continue
		}
		meta, err := decodeCheckpointMeta(recs[0])
		if err != nil {
			st.Add(stats.EngineRecordsQuarantined, 1)
			continue
		}
		d, err := workload.Load(bytes.NewReader(recs[1]), false)
		if err != nil {
			st.Add(stats.EngineRecordsQuarantined, 1)
			continue
		}
		scenes = append(scenes, loaded{meta: meta, d: d})
	}
	sort.SliceStable(scenes, func(i, j int) bool { return scenes[i].meta.ordinal < scenes[j].meta.ordinal })
	n := 0
	for _, sc := range scenes {
		if _, err := r.Build(SceneConfig{
			Name:    sc.meta.name,
			Dataset: sc.d,
			Levels:  sc.meta.levels,
			Shards:  sc.meta.shards,
			Stats:   st,
		}); err != nil {
			return n, fmt.Errorf("engine: restoring scene %q: %w", sc.meta.name, err)
		}
		n++
	}
	return n, nil
}

// recordRecovery adds one recovery scan's tallies to the engine rows.
func recordRecovery(st *stats.Stats, rec persist.Recovery) {
	st.Add(stats.EngineRecordsReplayed, rec.Records)
	st.Add(stats.EngineTailsTruncated, rec.TailTruncated)
	st.Add(stats.EngineRecordsQuarantined, rec.Quarantined)
}

// Checkpointer periodically checkpoints a registry to a data directory.
type Checkpointer struct {
	stop   chan struct{}
	done   chan struct{}
	killed atomic.Bool
	once   sync.Once
}

// StartCheckpointer saves the registry to dir every interval until
// stopped, logging failures through logf (nil discards). Stop performs
// one final save; Kill (crash simulation) does not.
func (r *Registry) StartCheckpointer(dir string, interval time.Duration, st *stats.Stats, logf func(format string, args ...any)) *Checkpointer {
	if interval <= 0 {
		interval = time.Minute
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Checkpointer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if c.killed.Load() {
					return
				}
				if err := r.SaveAll(dir, st); err != nil {
					logf("checkpoint: %v", err)
				}
			case <-c.stop:
				if !c.killed.Load() {
					if err := r.SaveAll(dir, st); err != nil {
						logf("checkpoint (final): %v", err)
					}
				}
				return
			}
		}
	}()
	return c
}

// Stop ends the checkpoint loop after one final save. Idempotent.
func (c *Checkpointer) Stop() {
	if c == nil {
		return
	}
	c.once.Do(func() { close(c.stop) })
	<-c.done
}

// Kill ends the checkpoint loop without a final save, simulating the
// process dying. Idempotent.
func (c *Checkpointer) Kill() {
	if c == nil {
		return
	}
	c.killed.Store(true)
	c.once.Do(func() { close(c.stop) })
	<-c.done
}
