// Package retrieval implements the motion-aware continuous data retrieval
// of paper §IV: the client-side Algorithm 1 (ContinuousDataRetrieval) that
// turns consecutive query frames into incremental sub-queries with
// speed-dependent resolution bands, and the server that executes the
// sub-queries against a pluggable index and filters out coefficients a
// client already holds (the Fig. 3 "send only vertex 2" behaviour).
package retrieval

import (
	"math/bits"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/wavelet"
)

// SubQuery is one element of the parameter set passed to the paper's
// Retrieve function: a region plus the value band of the coefficients
// needed in it.
type SubQuery struct {
	Region geom.Rect2
	WMin   float64
	WMax   float64
	// Filter optionally restricts delivery to coefficients whose vertex
	// position satisfies it (e.g. a view frustum). Nil delivers every
	// match. Filters are a local-API extension; the wire protocol ships
	// pure window queries.
	Filter func(geom.Vec3) bool
}

// Response summarizes one retrieval round-trip.
type Response struct {
	IDs     []int64 // newly delivered coefficient ids
	Bytes   int64   // payload size of the delivered coefficients
	IO      int64   // index node reads spent answering the sub-queries
	Queries int     // number of sub-queries executed
	// Dropped counts coefficients withheld from this response: by a
	// byte budget (see Execute — exactly the deliveries the
	// unlimited run would have made beyond the budget's prefix cut) or
	// by a storage fault (the filter pass could not read the backing
	// page — see index.ErrPageUnavailable). Always 0 for unbudgeted,
	// fault-free execution. Withheld coefficients are NOT marked
	// delivered — later frames retrieve them when budget allows or the
	// page heals.
	Dropped int64
	// Hot identifies the hot-cache entry whose id set this response
	// equals exactly, when there is one — see HotRef. Transports use it
	// to replay a cached serialized payload instead of re-encoding.
	Hot HotRef
}

// HotRef ties a response to a hot-cache entry. It is set (Valid) only
// when the response's IDs are exactly the entry's ids — a single
// unfiltered sub-query from which the delivered-set merge dropped
// nothing — so a payload encoded from this response may be cached under
// Query and replayed byte-identically for later responses carrying the
// same reference.
type HotRef struct {
	Valid bool
	Query index.Query
	// Epoch is always 0. It is kept only for bench/ (DESIGN §17).
	Epoch uint64
}

// MapSpeedToResolution is the client-tunable function of §IV converting
// normalized speed into the minimum coefficient value worth retrieving.
// Nil clients use Identity.
type MapSpeedToResolution func(speed float64) float64

// Identity is the mapping used throughout the paper's experiments: the
// speed *is* the resolution cutoff ("the speed is expected to be inversely
// proportional to the value of the wavelet coefficients retrieved"),
// clamped to [0, 1].
func Identity(speed float64) float64 {
	if speed < 0 {
		return 0
	}
	if speed > 1 {
		return 1
	}
	return speed
}

// Server answers window sub-queries from a coefficient store through an
// access method. It is safe for concurrent use by any number of
// sessions: Execute only reads the store and the index (whose search is
// concurrent-safe per the index.Index contract), and the shared state it
// does write — the stats collector and the hot cache — is atomic or
// locked inside.
type Server struct {
	store index.CoefficientSource
	idx   index.IntoSearcher
	zMin  float64
	zMax  float64
	st    *stats.Stats
	scene string
	// hot is the sharing table: it memoizes sub-query results and
	// shares searches in flight among concurrent askers; nil disables it.
	hot *hotcache.Cache
	// sessions holds released sessions, empty and with their buffers
	// grown, for NewSession to hand out again.
	sessions sync.Pool
}

// NewServer creates a server over a coefficient source using the given
// served index (any source and any index.IntoSearcher; the server never
// needs the concrete slab or tree). The vertical query band is derived
// from the source's bounds (queries are ground-plane windows; the z band
// always spans every object). The server records into stats.Default
// until SetStats says otherwise.
func NewServer(store index.CoefficientSource, idx index.IntoSearcher) *Server {
	b := store.Bounds()
	return &Server{store: store, idx: idx, zMin: b.Min.Z, zMax: b.Max.Z, st: stats.Default}
}

// SetStats redirects the server's observability counters (nil disables
// recording). Not safe to call while requests are in flight.
func (s *Server) SetStats(st *stats.Stats) { s.st = st }

// SetScene names the scene this server serves; executed requests are then
// attributed to it in the per-scene stats breakdown (empty = no
// attribution). The engine registry sets it when a scene is added. Not
// safe to call while requests are in flight.
func (s *Server) SetScene(name string) { s.scene = name }

// Scene returns the scene name set via SetScene ("" for unnamed).
func (s *Server) Scene() string { return s.scene }

// SetHotCache wires the sharing table into the search path (nil
// disables it). The index never changes, so a cached or shared result is
// what an uncached search returns. Not safe to call while requests are
// in flight.
func (s *Server) SetHotCache(hot *hotcache.Cache) { s.hot = hot }

// HotCache returns the cache wired via SetHotCache (nil when disabled).
func (s *Server) HotCache() *hotcache.Cache { return s.hot }

// Coalescer returns the sharing table, as HotCache does. It is kept
// only for bench/ (DESIGN §17 lists every such name).
func (s *Server) Coalescer() *hotcache.Cache { return s.hot }

// CoalescerConfig is empty: the sharing table's settings are
// hotcache.Config. It is kept only for bench/ (DESIGN §17).
type CoalescerConfig struct{}

// SetParallelism does nothing: a request's sub-queries always run one
// after another on the calling goroutine (see searchAll). It is kept
// only for bench/ (DESIGN §17).
func (s *Server) SetParallelism(int) {}

// Store returns the underlying coefficient source.
func (s *Server) Store() index.CoefficientSource { return s.store }

// Index returns the access method in use.
func (s *Server) Index() index.IntoSearcher { return s.idx }

// Scratch is reusable per-caller execution state: the per-sub-query
// result slabs, the index search cursor, the response id buffer and the
// frame pin set. A zero Scratch is ready to use; buffers grow on first
// use and are retained, so steady-state requests allocate almost
// nothing. A Scratch must not be shared by concurrent requests or moved
// between servers — it belongs to one session, like the delivered set.
type Scratch struct {
	results []subResult
	cur     index.Cursor
	ids     []int64
	pins    *index.Pins
}

// pinsOf returns the scratch's pin set over store, created on first use
// and reused (Release keeps its storage) thereafter.
func (sc *Scratch) pinsOf(store index.CoefficientSource) *index.Pins {
	if sc.pins == nil {
		sc.pins = store.NewPins()
	}
	return sc.pins
}

// Execute runs the sub-queries, filtering results against the client's
// delivered set (nil = no filtering) and recording new deliveries into it.
// This is the server side of Fig. 3: overlapping sub-queries and support
// regions straddling the old frame produce duplicates, and the filter
// ensures each coefficient crosses the link once per client.
//
// The index searches of one request and the merge into the delivered
// set run on the calling goroutine in sub-query order. The delivered
// set is the caller's: Execute must not be called concurrently
// with the same set (one session = one client = one request at a time).
//
// sc is the caller's execution state: the returned Response's IDs slice
// aliases its buffer and is valid only until the next Execute on the
// same Scratch. A nil sc is a fresh Scratch, so the response is the
// caller's to keep.
//
// maxBytes > 0 is a byte budget: at most maxBytes/wavelet.WireBytes
// coefficients are delivered, cut as a prefix of the deterministic merge
// order (sub-query order, index order within each sub-query). Because
// the merge order is the planner's priority order, truncation degrades
// gracefully: the highest-utility sub-queries keep their coefficients
// and the tail is withheld. Withheld coefficients are counted in
// Response.Dropped and are NOT marked delivered, so they remain
// retrievable by later frames. maxBytes ≤ 0 means unlimited.
//
// Determinism: same sub-queries + same delivered set + same budget ⇒
// the same response (ids, order, bytes, Dropped) — the property the
// wire protocol's byte budget is built on.
func (s *Server) Execute(subs []SubQuery, delivered *Delivered, sc *Scratch, maxBytes int64) Response {
	if sc == nil {
		sc = new(Scratch)
	}
	var start time.Time
	if s.st != nil {
		start = time.Now()
	}
	for len(sc.results) < len(subs) {
		sc.results = append(sc.results, subResult{})
	}
	results := sc.results[:len(subs)]
	firstTouches := s.searchAll(subs, results, &sc.cur)
	// limit is the budget's prefix cut in whole coefficients; -1 means
	// unlimited. A positive budget below one wire record delivers
	// nothing (and withholds everything).
	limit := int64(-1)
	if maxBytes > 0 {
		limit = maxBytes / wavelet.WireBytes
	}
	// The filter pass reads coefficient positions through the frame pin
	// set, which holds a paged store's pages until the merge is done.
	pins := sc.pinsOf(s.store)
	resp := Response{IDs: sc.ids[:0]}
	m := s.merge(subs, results, delivered, limit, pins, &resp)
	pins.Release()
	sc.ids = resp.IDs
	if len(subs) == 1 && results[0].hot && !m.suppressed {
		resp.Hot = HotRef{Valid: true, Query: s.queryOf(&subs[0])}
	}
	resp.Bytes = int64(len(resp.IDs)) * wavelet.WireBytes
	if st := s.st; st != nil {
		coeffs := int64(len(resp.IDs))
		st.Add(stats.RetrievalRequests, 1)
		st.Add(stats.RetrievalSubQueries, int64(resp.Queries))
		st.Add(stats.RetrievalNodeIO, resp.IO)
		st.Add(stats.RetrievalCoeffs, coeffs)
		st.Add(stats.RetrievalRawHits, m.rawHits)
		st.Add(stats.RetrievalBytes, resp.Bytes)
		st.Observe(stats.RetrievalExecuteNs, int64(time.Since(start)))
		st.Observe(stats.RetrievalRequestNodeIO, resp.IO)
		row := st.Label(stats.Scenes, s.scene)
		row.Add(stats.SceneRequests, 1)
		row.Add(stats.SceneNodeIO, resp.IO)
		row.Add(stats.SceneCoeffs, coeffs)
		row.Add(stats.SceneBytes, resp.Bytes)
		if maxBytes > 0 {
			st.Add(stats.RetrievalBudgetRequests, 1)
			st.Add(stats.RetrievalBudgetBytesAsked, maxBytes)
			st.Add(stats.RetrievalBudgetBytesServed, resp.Bytes)
			if resp.Dropped > 0 {
				st.Add(stats.RetrievalTruncated, 1)
				st.Add(stats.RetrievalCoeffsDropped, resp.Dropped)
			}
		}
		if m.faultWithheld > 0 {
			st.Add(stats.RetrievalCoeffsWithheld, m.faultWithheld)
		}
		if firstTouches > 0 {
			st.Add(stats.RetrievalFirstTouches, firstTouches)
		}
	}
	return resp
}

// mergeTally is what a merge reports beside the response it fills.
type mergeTally struct {
	// suppressed records whether the merge held back any raw hit — by a
	// filter, a page fault, the delivered set or the budget: only a
	// single-sub response without one equals its cache entry's id set and
	// may carry a HotRef.
	suppressed bool
	// faultWithheld counts hits withheld because their backing page was
	// unreadable — a subset of resp.Dropped, surfaced to stats separately
	// from budget truncation.
	faultWithheld int64
	// rawHits counts the index hits merged, summed over sub-queries.
	rawHits int64
}

// merge folds the sub-queries' raw hits into resp in plan order — the
// server side of Fig. 3. It appends each coefficient the client does not
// hold to resp.IDs and records it in delivered (nil = no filtering),
// cuts the deliveries at limit coefficients (-1 = unlimited) as a prefix
// of that order, and counts what the cut and page faults withhold in
// resp.Dropped; resp.IO and resp.Queries sum the executed sub-queries.
//
// Each sub-query's hits arrive as ascending 64-id words (the SearchWords
// contract), the words of the delivered bitset, so the merge takes a
// word at a time: the hits minus the delivered word are the fresh ids;
// a Filter reads the positions of those alone, through coeffs, and the
// ones it rejects or whose page faults leave the word; the budget cut
// falls inside the word by popcount, and the kept ids are ORed into the
// set at once. A delivered id is never fresh, so neither a rejection nor
// a fault on its page withholds anything.
//
// Withheld ids are not marked delivered — later frames retrieve them
// when budget allows or the page heals. Dropped must equal exactly what
// the unlimited, fault-free merge would have delivered beyond the cut,
// and a support region straddling several sub-query rectangles reaches
// the merge more than once, so with a delivered set the withheld ids are
// deduplicated through a second bitset whose pages are allocated on
// first use: only truncated or faulted responses pay for it. Without a
// delivered set the unlimited merge would append every hit, so every
// withheld hit counts.
func (s *Server) merge(subs []SubQuery, results []subResult, delivered *Delivered, limit int64, coeffs coeffReader, resp *Response) mergeTally {
	var t mergeTally
	var withheld Delivered
	// withhold counts the newly withheld ids of mask m in word w.
	withhold := func(w int64, m uint64) {
		t.suppressed = true
		if delivered == nil {
			resp.Dropped += int64(bits.OnesCount64(m))
		} else {
			resp.Dropped += int64(withheld.or(w, m))
		}
	}
	for i := range subs {
		r := &results[i]
		if !r.ran {
			continue
		}
		resp.IO += r.io
		resp.Queries++
		filter := subs[i].Filter
		for _, word := range r.words {
			w := word.W
			t.rawHits += int64(bits.OnesCount64(word.Bits))
			fresh := word.Bits
			if delivered != nil {
				fresh &^= delivered.word(w)
			}
			if fresh != word.Bits {
				t.suppressed = true
			}
			if filter != nil && fresh != 0 {
				// The filter runs before the delivered set is touched: a
				// coefficient it rejects has not been sent and must stay
				// retrievable.
				var faulted uint64
				for f := fresh; f != 0; f &= f - 1 {
					b := bits.TrailingZeros64(f)
					bit := uint64(1) << b
					pos, err := coeffs.Pos(w<<6 | int64(b))
					if err != nil {
						// Unreadable page: withhold the coefficient without
						// marking it delivered — the session re-retrieves it once
						// the page heals, and frames touching only healthy pages
						// are unaffected.
						faulted |= bit
					} else if !filter(pos) {
						t.suppressed = true
						fresh &^= bit
					}
				}
				if faulted != 0 {
					t.faultWithheld += int64(bits.OnesCount64(faulted))
					withhold(w, faulted)
					fresh &^= faulted
				}
			}
			if room := limit - int64(len(resp.IDs)); limit >= 0 && int64(bits.OnesCount64(fresh)) > room {
				// Budget exhausted inside this word: keep its lowest room
				// fresh ids and withhold the rest, unmarked.
				keep := fresh
				for k := int64(bits.OnesCount64(fresh)); k > room; k-- {
					keep &^= 1 << (63 - bits.LeadingZeros64(keep))
				}
				withhold(w, fresh&^keep)
				fresh = keep
			}
			if fresh == 0 {
				continue
			}
			if delivered != nil {
				delivered.or(w, fresh)
			}
			base := w << 6
			for f := fresh; f != 0; f &= f - 1 {
				resp.IDs = append(resp.IDs, base|int64(bits.TrailingZeros64(f)))
			}
		}
	}
	return t
}

// coeffReader is what the merge's filter pass reads positions through:
// the frame's *index.Pins in service. A non-nil error means the backing
// page is unreadable (index.ErrPageUnavailable) and the coefficient is
// withheld.
type coeffReader interface {
	Pos(id int64) (geom.Vec3, error)
}

// subResult holds one sub-query's raw index hits as index.Words,
// pre-merge. The words slab lives in the Scratch and is reused across
// requests.
type subResult struct {
	words []index.Word
	io    int64
	ran   bool // false for degenerate sub-queries (empty region, WMin > WMax)
	// hot marks a result the hot cache answered or now holds — the
	// precondition for a response-level HotRef.
	hot bool
}

// searchAll runs the index search of every well-formed sub-query into
// results (len(results) == len(subs)), one after another on the calling
// goroutine, and reports how many of them were first touches (see
// searchOne). A frame is at most five sub-queries whose descents take
// tens of microseconds together — less than waking other goroutines for
// them costs — so a server's concurrency is its sessions.
func (s *Server) searchAll(subs []SubQuery, results []subResult, cur *index.Cursor) (firstTouches int64) {
	for i := range subs {
		results[i].hot = false
		results[i].ran = !(subs[i].Region.Empty() || subs[i].WMin > subs[i].WMax)
		if results[i].ran && s.searchOne(&subs[i], &results[i], cur) {
			firstTouches++
		}
	}
	return firstTouches
}

func (s *Server) queryOf(sub *SubQuery) index.Query {
	return index.Query{
		Region: sub.Region,
		ZMin:   s.zMin, ZMax: s.zMax,
		WMin: sub.WMin, WMax: sub.WMax,
	}
}

// searchOne answers one sub-query through the sharing table, when one
// is wired (hotcache.Cache.Search), and reports whether it was a first
// touch: an index pass the table did not share — a query asked for the
// first time, or one with a NaN field. A server without a table
// searches directly and counts no first touches. Every path returns the
// same ids and the same node I/O. out.words is reused as the result
// buffer.
func (s *Server) searchOne(sub *SubQuery, out *subResult, cur *index.Cursor) (firstTouch bool) {
	q := s.queryOf(sub)
	if s.hot == nil {
		out.words, out.io = s.idx.SearchWords(q, out.words[:0], cur)
		return false
	}
	out.words, out.io, out.hot = s.hot.Search(s.idx, q, out.words[:0], cur)
	return !out.hot
}

// BlockBytes returns the payload and index I/O of the coefficients
// *assigned* to the region: those whose vertex position falls inside it
// (with value ≥ wmin). Assignment partitions the dataset — a coefficient
// belongs to exactly one grid block — so block payloads sum to the
// dataset size without the multiple counting that support-region overlap
// would cause. The buffer manager's grid-block cache uses this; window
// queries keep the support-intersection semantics of Execute.
func (s *Server) BlockBytes(region geom.Rect2, wmin float64) (int64, int64) {
	ids, io := s.idx.Search(index.Query{
		Region: region,
		ZMin:   s.zMin, ZMax: s.zMax,
		WMin: wmin, WMax: 1,
	})
	var n int64
	pins := s.store.NewPins()
	for _, id := range ids {
		pos, err := pins.Pos(id)
		if err != nil {
			continue // unreadable page: the block simply sizes without it
		}
		if region.Contains(pos.XY()) {
			n++
		}
	}
	pins.Release()
	return n * wavelet.WireBytes, io
}

// Session is the per-client server state: the set of coefficients already
// delivered to this client. A Session is NOT safe for concurrent use —
// it is owned by one client (one connection goroutine); many sessions
// may call into the shared Server concurrently.
type Session struct {
	srv       *Server
	delivered Delivered
	// scratch backs RetrieveScratch: per-session search cursors and
	// result buffers reused across frames. Single ownership comes free
	// with the session's one-request-at-a-time contract.
	scratch Scratch
	// reused: NewSession took the session from srv.sessions.
	reused bool
}

// NewSession opens a session against the server: one Release returned
// to it when there is one, else a fresh one. Either is empty, so what a
// session retrieves does not depend on which it was.
func NewSession(srv *Server) *Session {
	if s, ok := srv.sessions.Get().(*Session); ok {
		s.reused = true
		return s
	}
	return &Session{srv: srv}
}

// Release ends the session and hands it back to its server for a later
// NewSession: the delivered set is emptied in place, its touched pages
// zeroed and kept with its spine, and the scratch (result slabs, search
// cursor, id buffer, pins) is kept grown. The caller must hold no other
// reference to the session — a session that may still be resumed is
// never released. The pool gives up what it holds across garbage
// collections, so released sessions bound no memory for long.
func (s *Session) Release() {
	s.delivered.reset()
	s.srv.sessions.Put(s)
}

// Reused reports whether NewSession took the session from its server's
// released ones rather than making it.
func (s *Session) Reused() bool { return s.reused }

// Retrieve executes the sub-queries with duplicate filtering. The
// response is freshly allocated and safe to retain.
func (s *Session) Retrieve(subs []SubQuery) Response {
	return s.srv.Execute(subs, &s.delivered, nil, 0)
}

// RetrieveScratch is Retrieve on the session's reusable scratch: the
// response's IDs slice is valid only until this session's next
// RetrieveScratch. The steady-state wire server uses it — a serving
// goroutine consumes each response (encodes it onto the connection)
// before the next request arrives, so nothing outlives the window.
func (s *Session) RetrieveScratch(subs []SubQuery) Response {
	return s.srv.Execute(subs, &s.delivered, &s.scratch, 0)
}

// RetrieveBudget executes the sub-queries under a byte budget on the
// session's scratch (see Execute for the truncation contract and
// RetrieveScratch for the IDs aliasing window). The wire server answers
// every request with it.
func (s *Session) RetrieveBudget(subs []SubQuery, maxBytes int64) Response {
	return s.srv.Execute(subs, &s.delivered, &s.scratch, maxBytes)
}

// Delivered returns the number of coefficients this client holds.
func (s *Session) Delivered() int { return s.delivered.Len() }

// Pins returns the session's frame pin set over the server's store — the
// one the merge's filter pass reads through. A transport reads a
// response's coefficients through it and releases it once they are
// encoded.
func (s *Session) Pins() *index.Pins { return s.scratch.pinsOf(s.srv.store) }

// Forget removes ids from the delivered set so they become retrievable
// again. The wire server uses it for resume rollback: when a response
// was sent but the client never applied it (connection lost mid-reply),
// the frame's deliveries are forgotten so the retry re-sends them
// instead of leaving permanent holes in the client's meshes.
func (s *Session) Forget(ids []int64) {
	for _, id := range ids {
		s.delivered.Del(id)
	}
}

// Has reports whether a coefficient has been delivered to this client.
func (s *Session) Has(id int64) bool { return s.delivered.Has(id) }

// DeliveredIDs returns the delivered set as an ascending slice — the
// serializable form of the session for the durable session journal.
// The fixed order makes the encoding deterministic (byte-identical
// journals for identical sessions).
func (s *Session) DeliveredIDs() []int64 { return s.delivered.IDs() }

// RestoreSession rebuilds a session from a journaled delivered set —
// the inverse of DeliveredIDs, used when a restarted server replays
// its session journal or imports a drained backend's sessions. Ids
// outside the store's [0, NumCoeffs) are dropped: the index can never
// return them, and a corrupt record must not size the set's spine.
func RestoreSession(srv *Server, delivered []int64) *Session {
	s := NewSession(srv)
	total := srv.store.NumCoeffs()
	for _, id := range delivered {
		if id >= 0 && id < total {
			s.delivered.Add(id)
		}
	}
	return s
}

// Client runs Algorithm 1 (ContinuousDataRetrieval) against a session:
// each frame is diffed against the previous one, the speed is mapped to a
// resolution cutoff, and only the new region — plus, when the client
// slowed down, the extra detail band for the overlap region — is
// retrieved.
type Client struct {
	session  *Session
	mapSpeed MapSpeedToResolution

	havePrev bool
	prev     geom.Rect2
	// prevW is the cutoff the previous window holds: it has every
	// coefficient with value ≥ prevW.
	prevW float64
}

// NewClient creates a client over the session. A nil mapping uses
// Identity. A nil session is allowed for plan-only use (PlanFrame +
// Advance, e.g. when the retrieval happens over a network connection);
// Frame requires a session.
func NewClient(session *Session, mapSpeed MapSpeedToResolution) *Client {
	if mapSpeed == nil {
		mapSpeed = Identity
	}
	return &Client{session: session, mapSpeed: mapSpeed}
}

// Session returns the client's server session.
func (c *Client) Session() *Session { return c.session }

// Frame processes the query frame at time t (Algorithm 1). It returns the
// retrieval response and the resolution cutoff used.
func (c *Client) Frame(q geom.Rect2, speed float64) (Response, float64) {
	w := c.mapSpeed(speed)
	resp := c.session.Retrieve(c.plan(q, w))
	c.advance(q, w)
	return resp, w
}

// PlanFrame computes the sub-queries Algorithm 1 would issue for the
// frame without executing them (used by tests and by the wire protocol).
func (c *Client) PlanFrame(q geom.Rect2, speed float64) []SubQuery {
	return c.plan(q, c.mapSpeed(speed))
}

func (c *Client) plan(q geom.Rect2, w float64) []SubQuery {
	if !c.havePrev {
		// Line 1.10: no previous frame — retrieve Q_t wholesale.
		return []SubQuery{{Region: q, WMin: w, WMax: 1}}
	}
	overlap := q.Intersect(c.prev)
	if overlap.Empty() {
		return []SubQuery{{Region: q, WMin: w, WMax: 1}}
	}
	var subs []SubQuery
	if c.slower(w) {
		// Line 1.6: the client slowed down (finer resolution, lower cutoff):
		// fetch the missing detail band for the overlap region. The band is
		// closed at prevW; coefficients exactly at prevW were already
		// delivered and are removed by the session filter.
		subs = append(subs, SubQuery{Region: overlap, WMin: w, WMax: c.prevW})
	}
	// Lines 1.6/1.8: the region not covered by the previous frame at full
	// band.
	for _, n := range q.Difference(c.prev) {
		subs = append(subs, SubQuery{Region: n, WMin: w, WMax: 1})
	}
	return subs
}

// slower reports whether the cutoff w lies below prevW at float32
// resolution, the precision in which a coefficient's value reaches the
// client (wavelet.WireRecord). Only then does a frame plan the slowdown
// band. A speed estimated from positions wobbles by ulps around a
// constant pace; the band between two such cutoffs holds nothing a
// client reporting its nominal speed would fetch.
func (c *Client) slower(w float64) bool { return float32(w) < float32(c.prevW) }

// advance moves the planner past a frame at cutoff w. prevW falls only
// when the frame planned the band (or had no previous window) and rises
// with w, so the window keeps every coefficient ≥ prevW: a skipped
// sub-float32 gap [w, prevW) is covered by the next real slowdown's band.
func (c *Client) advance(q geom.Rect2, w float64) {
	if !c.havePrev || w > c.prevW || c.slower(w) {
		c.prevW = w
	}
	c.havePrev = true
	c.prev = q
}

// Advance records that the frame was served (by whatever transport)
// without executing sub-queries locally. Plan-only clients call
// PlanFrame, ship the sub-queries over their own transport, then Advance.
func (c *Client) Advance(q geom.Rect2, speed float64) { c.advance(q, c.mapSpeed(speed)) }

// FrustumFrame retrieves the data visible in a directional view frustum
// at the given speed: the frustum's bounding window is queried with a
// position filter restricted to the sector. Frustum frames do not use
// the rectangle-difference incrementality (a filtered window leaves
// unfiltered parts of the rectangle unretrieved, which would poison the
// overlap bookkeeping); incremental savings come entirely from the
// session's delivered-set filtering, which remains exact.
func (c *Client) FrustumFrame(f geom.Frustum, speed float64) (Response, float64) {
	w := c.mapSpeed(speed)
	sub := SubQuery{
		Region: f.BoundingRect(),
		WMin:   w,
		WMax:   1,
		Filter: func(p geom.Vec3) bool { return f.Contains(p.XY()) },
	}
	resp := c.session.Retrieve([]SubQuery{sub})
	// The rectangular-frame history is invalidated: what was "covered" was
	// a sector, not the rectangle.
	c.havePrev = false
	return resp, w
}

// Reset forgets the previous frame (e.g. after a teleport or cache
// flush); the next frame is retrieved wholesale.
func (c *Client) Reset() { c.havePrev = false }
