package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Breakdown names a labelled table: one Row per label.
type Breakdown int

const (
	Scenes   Breakdown = iota // per engine scene; columns Scene*
	Backends                  // per cluster backend address, recorded by the gateway; columns Backend*
	numBreakdowns
)

// RowCols is the number of columns in a Row.
const RowCols = 4

// Columns of a Scenes row: one executed request's share of the retrieval
// rows.
const (
	SceneRequests = iota
	SceneNodeIO
	SceneCoeffs
	SceneBytes
)

// Columns of a Backends row: client connections routed to the backend,
// failovers recorded against it (a route skipped it as down or failed to
// dial it), and health probes it answered or failed.
const (
	BackendRoutes = iota
	BackendFailovers
	BackendProbes
	BackendProbeFails
)

// Columns of a Shards row: one index shard's searches and their node
// reads.
const (
	ShardSearches = iota
	ShardNodeIO
)

var (
	breakdownNames = [numBreakdowns]string{Scenes: "scenes", Backends: "backends"}
	breakdownCols  = [numBreakdowns][RowCols]string{
		Scenes:   {"requests", "node_io", "coeffs", "bytes"},
		Backends: {"routes", "failovers", "probes", "probe_fails"},
	}
)

// Row is one label's (or one shard's) columns; recording into it is
// wait-free.
type Row [RowCols]atomic.Int64

// Add adds n to column col. A nil row — an empty label, a nil Stats, a
// shard the table was never sized for — drops the sample.
func (r *Row) Add(col int, n int64) {
	if r != nil {
		r[col].Add(n)
	}
}

// RowValues is a point-in-time copy of a Row.
type RowValues [RowCols]int64

func (r *Row) load() RowValues {
	var v RowValues
	for i := range r {
		v[i] = r[i].Load()
	}
	return v
}

type breakdowns struct {
	labels  [numBreakdowns]sync.Map // label -> *Row
	shardMu sync.Mutex
	shards  atomic.Pointer[[]*Row]
}

// Label returns label's row in breakdown b, creating it on first use
// (one LoadOrStore). An empty label or a nil Stats returns nil.
func (s *Stats) Label(b Breakdown, label string) *Row {
	if s == nil || label == "" {
		return nil
	}
	v, ok := s.labels[b].Load(label)
	if !ok {
		v, _ = s.labels[b].LoadOrStore(label, new(Row))
	}
	return v.(*Row)
}

// EnsureShards grows the shard table to at least n rows. Call it at
// index-build time (Sharded.SetStats does): the table stays indexed, so
// Shard is one atomic load.
func (s *Stats) EnsureShards(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	cur := s.shards.Load()
	if cur != nil && len(*cur) >= n {
		return
	}
	grown := make([]*Row, n)
	if cur != nil {
		copy(grown, *cur)
	}
	for i := range grown {
		if grown[i] == nil {
			grown[i] = new(Row)
		}
	}
	s.shards.Store(&grown)
}

// Shard returns shard i's row: nil, dropping the sample rather than
// racing a growth, when EnsureShards never sized the table that far.
func (s *Stats) Shard(i int) *Row {
	if s == nil {
		return nil
	}
	tab := s.shards.Load()
	if tab == nil || i < 0 || i >= len(*tab) {
		return nil
	}
	return (*tab)[i]
}

func (s *Stats) labelSnapshot(b Breakdown) map[string]RowValues {
	var out map[string]RowValues
	s.labels[b].Range(func(k, v any) bool {
		if out == nil {
			out = make(map[string]RowValues)
		}
		out[k.(string)] = v.(*Row).load()
		return true
	})
	return out
}

func (s *Stats) shardSnapshot() []RowValues {
	tab := s.shards.Load()
	if tab == nil {
		return nil
	}
	out := make([]RowValues, len(*tab))
	for i, r := range *tab {
		out[i] = r.load()
	}
	return out
}

// writeBreakdowns renders the labelled breakdowns one label at a time,
// in label order, and the shard table as its totals and hottest shard.
func (s Snapshot) writeBreakdowns(b *strings.Builder, next func()) {
	for bd, m := range [numBreakdowns]map[string]RowValues{Scenes: s.Scenes, Backends: s.Backends} {
		if len(m) == 0 {
			continue
		}
		labels := make([]string, 0, len(m))
		for l := range m {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		next()
		b.WriteString(breakdownNames[bd])
		for _, l := range labels {
			fmt.Fprintf(b, " %s[", l)
			for col, name := range breakdownCols[bd] {
				if col > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(b, "%s %d", name, m[l][col])
			}
			b.WriteByte(']')
		}
	}
	if len(s.Shards) > 0 {
		var searches, io int64
		hot := 0
		for i, sh := range s.Shards {
			searches += sh[ShardSearches]
			io += sh[ShardNodeIO]
			if sh[ShardNodeIO] > s.Shards[hot][ShardNodeIO] {
				hot = i
			}
		}
		next()
		fmt.Fprintf(b, "shards %d (searches %d node_io %d hottest #%d node_io %d)",
			len(s.Shards), searches, io, hot, s.Shards[hot][ShardNodeIO])
	}
}
