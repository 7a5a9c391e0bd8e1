package engine

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/persist"
	"repro/internal/stats"
)

// DefaultJournalMaxBytes is the session journal size that triggers a
// compaction rewrite (1 MB keeps recovery replay instant even on the
// paper-scale datasets).
const DefaultJournalMaxBytes = 1 << 20

// Session-journal record kinds. A park appends the full parked-session
// state; a take marks the token consumed (resumed or evicted), so the
// journal's live set is parks minus takes.
const (
	journalKindPark = byte(1)
	journalKindTake = byte(2)
)

// SessionJournal is the durable side of the session tables: every
// parked lineage is appended as one CRC-framed record (token, scene,
// expiry, planner sequence, rollback candidates, delivered set), every
// take — a resume, an expiry, an eviction, a purge — as a tombstone. A
// restarted server replays the journal and re-parks the surviving
// sessions, so a ResilientClient resumes across the restart instead of
// falling back to a full re-plan — the paper's "never re-download a
// coefficient" economy extended over server crashes.
//
// The journal is bounded: once the file outgrows maxBytes and the live
// set is meaningfully smaller, it is compacted by an atomic rewrite
// holding only the live parks.
type SessionJournal struct {
	mu   sync.Mutex
	j    *persist.Journal
	live map[uint64][]byte // token → park payload, the compaction survivors
	max  int64
	st   *stats.Stats
}

// OpenSessionJournal opens (creating or recovering) the journal at
// path. Recovery truncates a torn tail in place, quarantines corrupt
// records, replays the survivors into the live set, and reports the
// tallies through st. maxBytes ≤ 0 uses DefaultJournalMaxBytes.
func OpenSessionJournal(path string, maxBytes int64, st *stats.Stats) (*SessionJournal, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultJournalMaxBytes
	}
	j, recs, rec, err := persist.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	recordRecovery(st, rec)
	s := &SessionJournal{j: j, live: make(map[uint64][]byte), max: maxBytes, st: st}
	for _, payload := range recs {
		kind, token, ok := peekRecord(payload)
		if !ok {
			// Passed the CRC but undecodable — treat like a quarantined
			// record rather than trusting it.
			st.Add(stats.EngineRecordsQuarantined, 1)
			continue
		}
		switch kind {
		case journalKindPark:
			s.live[token] = payload
		case journalKindTake:
			delete(s.live, token)
		}
	}
	return s, nil
}

// peekRecord reads a record's kind and token without a full decode.
func peekRecord(p []byte) (kind byte, token uint64, ok bool) {
	if len(p) < 9 {
		return 0, 0, false
	}
	return p[0], binary.LittleEndian.Uint64(p[1:9]), true
}

// Live returns the number of parked sessions the journal would restore.
func (s *SessionJournal) Live() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}

// park journals one parked lineage's record. A session table calls it
// under its lock, before the lineage can be taken.
func (s *SessionJournal) park(token uint64, payload []byte) {
	if s == nil || payload == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.j.Append(payload)
	if err == nil && !s.j.Killed() {
		s.live[token] = payload
	}
	s.maybeCompactLocked()
}

// take tombstones a parked lineage. Unknown tokens — lineages parked
// before the journal was attached or after it died — are ignored.
func (s *SessionJournal) take(token uint64) {
	if s == nil || token == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.live[token]; !ok {
		return
	}
	delete(s.live, token)
	var buf [9]byte
	buf[0] = journalKindTake
	binary.LittleEndian.PutUint64(buf[1:9], token)
	s.j.Append(buf[:])
	s.maybeCompactLocked()
}

// maybeCompactLocked rewrites the journal down to its live parks when
// the file has outgrown the bound and the rewrite would at least halve
// it (otherwise a large live set would trigger a rewrite per append).
func (s *SessionJournal) maybeCompactLocked() {
	size := s.j.Size()
	if size <= s.max || s.j.Killed() {
		return
	}
	est := int64(persist.HeaderBytes)
	for _, p := range s.live {
		est += int64(len(p)) + 8
	}
	if est*2 > size {
		return
	}
	tokens := make([]uint64, 0, len(s.live))
	for t := range s.live {
		tokens = append(tokens, t)
	}
	sort.Slice(tokens, func(i, j int) bool { return tokens[i] < tokens[j] })
	payloads := make([][]byte, len(tokens))
	for i, t := range tokens {
		payloads[i] = s.live[t]
	}
	if err := s.j.Rewrite(payloads); err == nil {
		s.st.Add(stats.EngineJournalCompactions, 1)
	}
}

// Restore parks the journal's live lineages in the registry's session
// tables (Sessions.adopt): each is rebuilt — delivered set, sequence,
// rollback candidates — under its original token and expiry, flagged
// Restored so the first resume served from it is counted. A record the
// tables do not take — of a scene the registry does not serve, already
// expired, over capacity, undecodable (counted quarantined) — is
// tombstoned, so the journal's live set is the tables' parked set.
// Call after SetSessionJournal, before serving. Returns the number
// restored.
func (s *SessionJournal) Restore(reg *Registry) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	live := make(map[uint64][]byte, len(s.live))
	for token, p := range s.live {
		live[token] = p
	}
	s.mu.Unlock()
	restored := 0
	for token, p := range live {
		park, err := decodePark(p)
		if err != nil {
			s.st.Add(stats.EngineRecordsQuarantined, 1)
		} else if sc, ok := reg.Get(park.scene); ok && sc.Sessions.adopt(park, nil) {
			restored++
			continue
		}
		s.take(token)
	}
	return restored
}

// Kill simulates the server process dying: nothing after this call
// reaches the journal file. In-memory state keeps working so the dying
// "process" does not notice.
func (s *SessionJournal) Kill() {
	if s == nil {
		return
	}
	s.j.Kill()
}

// Killed reports whether the journal is dead — Kill was called or an
// armed failpoint fired. The crash harness polls it to know a torn
// append has happened before restarting.
func (s *SessionJournal) Killed() bool {
	if s == nil {
		return false
	}
	return s.j.Killed()
}

// SetFailpoint arms the underlying journal's crash failpoint (tear the
// file n bytes into a future append); n < 0 disables.
func (s *SessionJournal) SetFailpoint(n int64) {
	if s == nil {
		return
	}
	s.j.SetFailpoint(n)
}

// Close flushes and closes the journal file.
func (s *SessionJournal) Close() error {
	if s == nil {
		return nil
	}
	return s.j.Close()
}

// parkRecord is the decoded form of a park payload.
type parkRecord struct {
	token     uint64
	expires   int64 // unix nanoseconds
	seq       int64
	scene     string
	lastIDs   []int64
	delivered []int64
}

// encodePark serializes a parked lineage: kind, token, expiry, planner
// sequence, scene name, the last frame's delivery ids (rollback
// candidates), and the full delivered set (sorted, so identical
// lineages encode identically).
func encodePark(token uint64, scene string, e *Lineage, expires time.Time) []byte {
	delivered := e.Session.DeliveredIDs()
	n := 1 + 8 + 8 + 8 + 2 + len(scene) + 4 + 8*len(e.LastIDs) + 4 + 8*len(delivered)
	buf := make([]byte, 0, n)
	buf = append(buf, journalKindPark)
	buf = binary.LittleEndian.AppendUint64(buf, token)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(expires.UnixNano()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Seq))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(scene)))
	buf = append(buf, scene...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.LastIDs)))
	for _, id := range e.LastIDs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(delivered)))
	for _, id := range delivered {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

// decodePark parses a park payload. The payload already passed its CRC,
// but every bound is still checked — a decoding failure is treated as
// corruption by the caller, never a panic.
func decodePark(p []byte) (parkRecord, error) {
	var out parkRecord
	if len(p) < 1+8+8+8+2 || p[0] != journalKindPark {
		return out, fmt.Errorf("engine: malformed park record")
	}
	off := 1
	out.token = binary.LittleEndian.Uint64(p[off:])
	off += 8
	out.expires = int64(binary.LittleEndian.Uint64(p[off:]))
	off += 8
	out.seq = int64(binary.LittleEndian.Uint64(p[off:]))
	off += 8
	sceneLen := int(binary.LittleEndian.Uint16(p[off:]))
	off += 2
	if sceneLen > MaxSceneName || off+sceneLen > len(p) {
		return out, fmt.Errorf("engine: park record scene overflow")
	}
	out.scene = string(p[off : off+sceneLen])
	off += sceneLen
	ids := func() ([]int64, error) {
		if off+4 > len(p) {
			return nil, fmt.Errorf("engine: park record truncated")
		}
		count := int(binary.LittleEndian.Uint32(p[off:]))
		off += 4
		if count < 0 || off+8*count > len(p) {
			return nil, fmt.Errorf("engine: park record id overflow")
		}
		out := make([]int64, count)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(p[off:]))
			off += 8
		}
		return out, nil
	}
	var err error
	if out.lastIDs, err = ids(); err != nil {
		return out, err
	}
	if out.delivered, err = ids(); err != nil {
		return out, err
	}
	if off != len(p) {
		return out, fmt.Errorf("engine: park record trailing bytes")
	}
	return out, nil
}
