package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/persist"
	"repro/internal/stats"
	"repro/internal/workload"
)

// checkpointExt names the per-scene files in a data directory:
// scene-<name>.ckpt, with <name> guaranteed path-safe by
// ValidateSceneName.
const checkpointExt = ".ckpt"

// SessionJournalFile is the session journal's file name inside a data
// directory.
const SessionJournalFile = "sessions.journal"

// CheckpointPath returns the scene file path for a scene name.
func CheckpointPath(dir, scene string) string {
	return filepath.Join(dir, "scene-"+scene+checkpointExt)
}

// sceneMetaBytes is the fixed part of a scene file's meta record:
// ordinal, levels and shards as uint32, then the name's length as
// uint16; the name follows.
const sceneMetaBytes = 14

// errSceneShort marks a scene file left without both of its records:
// there is nothing trustworthy to load, but no record failed to decode.
var errSceneShort = errors.New("engine: scene file lacks its meta or dataset record")

// SaveAll writes the scene file of every dataset-backed scene to dir
// (created if missing). A scene's data never changes after Build, so
// this runs once, on the boot that builds the scenes; restarts and
// drains read the files it wrote. Each file is written atomically
// (temp + fsync + rename) and holds two records: a meta record (the
// scene's position in the registry order, levels, shards and name) and
// the dataset serialized with workload.Dataset.Save. Scenes registered
// without a Dataset (bare sources) have no serializable payload and are
// skipped. Counters are recorded into st.
func (r *Registry) SaveAll(dir string, st *stats.Stats) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type job struct {
		ordinal int
		sc      *Scene
	}
	r.mu.RLock()
	jobs := make([]job, 0, len(r.order))
	for i, name := range r.order {
		if sc := r.scenes[name]; sc.Dataset != nil {
			jobs = append(jobs, job{ordinal: i, sc: sc})
		}
	}
	r.mu.RUnlock()
	for _, jb := range jobs {
		sc := jb.sc
		meta := make([]byte, sceneMetaBytes, sceneMetaBytes+len(sc.Name))
		binary.LittleEndian.PutUint32(meta[0:4], uint32(jb.ordinal))
		binary.LittleEndian.PutUint32(meta[4:8], uint32(sc.Levels))
		binary.LittleEndian.PutUint32(meta[8:12], uint32(sc.Shards))
		binary.LittleEndian.PutUint16(meta[12:14], uint16(len(sc.Name)))
		meta = append(meta, sc.Name...)
		var payload bytes.Buffer
		if err := sc.Dataset.Save(&payload); err != nil {
			return fmt.Errorf("engine: save scene %q: %w", sc.Name, err)
		}
		written, err := persist.WriteFileAtomic(CheckpointPath(dir, sc.Name), func(w *persist.Writer) error {
			if err := w.WriteRecord(meta); err != nil {
				return err
			}
			return w.WriteRecord(payload.Bytes())
		})
		if err != nil {
			return fmt.Errorf("engine: save scene %q: %w", sc.Name, err)
		}
		st.Add(stats.EngineCheckpoints, 1)
		st.Add(stats.EngineCheckpointBytes, written)
	}
	return nil
}

// decodeScene decodes a scene file's records, the meta record and then
// the dataset, into the config that rebuilds the scene (counting into
// st), and returns the scene's position in the registry order it was
// saved from.
func decodeScene(recs [][]byte, st *stats.Stats) (ordinal int, cfg SceneConfig, err error) {
	if len(recs) < 2 {
		return 0, cfg, errSceneShort
	}
	meta := recs[0]
	if len(meta) < sceneMetaBytes {
		return 0, cfg, fmt.Errorf("engine: scene file meta too short")
	}
	nameLen := int(binary.LittleEndian.Uint16(meta[12:14]))
	if nameLen > MaxSceneName || sceneMetaBytes+nameLen != len(meta) {
		return 0, cfg, fmt.Errorf("engine: scene file meta name overflow")
	}
	cfg = SceneConfig{
		Name:   string(meta[sceneMetaBytes:]),
		Levels: int(binary.LittleEndian.Uint32(meta[4:8])),
		Shards: int(binary.LittleEndian.Uint32(meta[8:12])),
		Stats:  st,
	}
	if err := ValidateSceneName(cfg.Name); err != nil {
		return 0, cfg, err
	}
	if cfg.Dataset, err = workload.Load(bytes.NewReader(recs[1]), false); err != nil {
		return 0, cfg, err
	}
	return int(binary.LittleEndian.Uint32(meta[0:4])), cfg, nil
}

// LoadAll rebuilds scenes from the scene files in dir, registering them
// in their original order (so the default scene stays the default).
// Damage never aborts the load: a torn or partly corrupt file
// contributes whatever records survive its CRCs, and a file left
// without both records is skipped — counted, never invented. A torn
// tail is truncated away and the file fsynced, so the next restart
// reads it clean. Recovery tallies go to st. Returns the number of
// scenes loaded.
func (r *Registry) LoadAll(dir string, st *stats.Stats) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "scene-*"+checkpointExt))
	if err != nil {
		return 0, err
	}
	sort.Strings(matches)
	type loaded struct {
		ordinal int
		cfg     SceneConfig
	}
	var scenes []loaded
	for _, path := range matches {
		recs, rec, err := persist.RecoverFile(path)
		recordRecovery(st, rec)
		var l loaded
		if err == nil {
			l.ordinal, l.cfg, err = decodeScene(recs, st)
		}
		switch {
		case err == nil:
			scenes = append(scenes, l)
		case !errors.Is(err, errSceneShort):
			// An unreadable header or a record that does not decode:
			// the file is not a scene file; skip it, counted.
			st.Add(stats.EngineRecordsQuarantined, 1)
		}
	}
	sort.SliceStable(scenes, func(i, j int) bool { return scenes[i].ordinal < scenes[j].ordinal })
	for i, l := range scenes {
		if _, err := r.Build(l.cfg); err != nil {
			return i, fmt.Errorf("engine: restoring scene %q: %w", l.cfg.Name, err)
		}
	}
	return len(scenes), nil
}

// recordRecovery adds one recovery scan's tallies to the engine rows.
func recordRecovery(st *stats.Stats, rec persist.Recovery) {
	st.Add(stats.EngineRecordsReplayed, rec.Records)
	st.Add(stats.EngineTailsTruncated, rec.TailTruncated)
	st.Add(stats.EngineRecordsQuarantined, rec.Quarantined)
}
