package index

import "repro/internal/rtree"

// Cursor is reusable per-caller search scratch for the allocation-free
// SearchWords and SearchInto paths: the R-tree traversal scratch, the
// buffer of raw hits it fills, the hit set that orders them into words
// and SearchInto's words before it expands them. A zero Cursor is ready
// to use; buffers and pages grow on first use and are retained, so
// steady-state searches allocate nothing. A Cursor must not be shared by
// concurrent searches — the serving layer keeps one per session, exactly
// like the result buffer it helps fill.
type Cursor struct {
	rt    rtree.Cursor
	raw   []int64
	hits  hitSet
	words []Word
}

// IntoSearcher is the contract of a served index — what
// retrieval.Server and the sharing table (hotcache) are written against.
// SearchWords appends Search's results to a caller-owned buffer as words
// using caller-owned scratch, so a warmed-up serve allocates nothing per
// query; the appended words hold exactly Search's ids, in its order,
// and the I/O is Search's. SearchInto is SearchWords with the words
// expanded into ids. A served index never changes after its build: new
// data arrives as a new scene.
//
// MotionAware and Sharded implement it. The figures' baselines (Naive,
// ObjectIndex) stay plain Index values; nothing serves them.
type IntoSearcher interface {
	Index
	// SearchWords appends the matching ids to out as non-empty words in
	// ascending W order and returns the extended buffer plus the node I/O
	// spent.
	SearchWords(q Query, out []Word, cur *Cursor) ([]Word, int64)
	// SearchInto appends the matching ids to buf in ascending order and
	// returns the extended buffer plus the node I/O spent.
	SearchInto(q Query, buf []int64, cur *Cursor) ([]int64, int64)
}

// searchInto is SearchInto over an index's SearchWords: the words go
// through the cursor's buffer and leave as ids.
func searchInto(idx IntoSearcher, q Query, buf []int64, cur *Cursor) ([]int64, int64) {
	var io int64
	cur.words, io = idx.SearchWords(q, cur.words[:0], cur)
	return AppendIDs(buf, cur.words), io
}

// Both served indexes satisfy the serving contract.
var (
	_ IntoSearcher = (*MotionAware)(nil)
	_ IntoSearcher = (*Sharded)(nil)
)
