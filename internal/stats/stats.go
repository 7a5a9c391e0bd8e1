// Package stats is the server's observability layer: a set of atomic
// counters and lock-free histograms that the retrieval server, the wire
// protocol server, and the client buffer manager update on their hot
// paths. Recording is wait-free (atomic adds only), so the counters are
// safe to share between every session goroutine of a multi-client server
// without adding lock contention to the read path.
//
// Snapshot() reads every counter individually; it is not a single atomic
// cut across all of them. Counters monotonically increase (the active-
// session gauge excepted), so totals taken after the workload quiesces
// are exact; totals taken mid-flight may be torn across counters by
// in-flight requests, which is the usual and acceptable semantics for
// monitoring reads.
package stats

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two histogram buckets. Bucket b
// holds values v with bits.Len64(v) == b, i.e. [2^(b-1), 2^b); bucket 0
// holds zeros. 48 buckets cover nanosecond latencies up to ~3 days and
// per-request I/O up to ~10^14 node reads.
const histBuckets = 48

// Histogram is a lock-free power-of-two-bucketed histogram. The zero
// value is ready to use. Observe is wait-free; a snapshot mid-Observe
// may see the count without the bucket (or vice versa) — bounded, benign
// skew for a monitoring structure.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets [histBuckets]int64
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the p-quantile (p in [0, 1]): the
// top of the first bucket whose cumulative count reaches p·Count. The
// bound is within 2× of the true value — the resolution of power-of-two
// buckets.
func (s HistogramSnapshot) Quantile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(p * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b, n := range s.Buckets {
		cum += n
		if cum >= target {
			if b == 0 {
				return 0
			}
			hi := int64(1)<<uint(b) - 1
			if hi > s.Max {
				hi = s.Max
			}
			return hi
		}
	}
	return s.Max
}

// Stats aggregates the server-side observability counters. The zero
// value is ready to use; all methods are safe on a nil receiver (they
// no-op), so call sites can wire an optional *Stats without guards.
type Stats struct {
	sessionsOpened atomic.Int64
	sessionsActive atomic.Int64
	requests       atomic.Int64
	subQueries     atomic.Int64
	indexIO        atomic.Int64
	coeffs         atomic.Int64
	bytes          atomic.Int64
	errors         atomic.Int64

	bufferHits    atomic.Int64
	bufferMisses  atomic.Int64
	demandBytes   atomic.Int64
	prefetchBytes atomic.Int64

	// Fault-tolerance counters (see DESIGN.md "Fault tolerance"): client
	// retries and timeouts, session resume attempts split by cache
	// outcome, degraded-mode activations, connections shed at the
	// session limit, and faults injected by the faultnet link model.
	retries      atomic.Int64
	timeouts     atomic.Int64
	resumeHits   atomic.Int64
	resumeMisses atomic.Int64
	degraded     atomic.Int64
	shed         atomic.Int64
	faults       atomic.Int64

	// Persistence counters (see DESIGN.md "Persistence & crash
	// recovery"): durable checkpoints written and their total bytes,
	// journal/checkpoint records replayed at startup, torn tails
	// truncated, records quarantined for checksum mismatch, session-
	// journal compactions, and resumes served from a journal recovered
	// after a restart (a subset of resumeHits).
	checkpoints        atomic.Int64
	checkpointBytes    atomic.Int64
	recordsReplayed    atomic.Int64
	tailsTruncated     atomic.Int64
	recordsQuarantined atomic.Int64
	journalCompactions atomic.Int64
	resumesRestored    atomic.Int64

	// Cluster counters (see internal/cluster): live scene drains
	// completed by a gateway controller. Per-backend route/failover/probe
	// attribution lives in the breakdown layer (RecordRoute and friends).
	drains atomic.Int64

	// ABR counters and gauges (see DESIGN.md §13): budgeted requests
	// served, the byte budgets clients asked for vs. the bytes actually
	// served under them, responses the budget truncated and the
	// coefficients those truncations withheld; plus the client-side
	// estimator gauges (last bandwidth/RTT/budget, set each frame).
	budgetRequests       atomic.Int64
	budgetBytesRequested atomic.Int64
	budgetBytesServed    atomic.Int64
	truncatedResponses   atomic.Int64
	coeffsDropped        atomic.Int64
	// coeffsWithheld counts coefficients withheld because their backing
	// page was unreadable (disk-fault degradation, DESIGN.md §15) — the
	// storage sibling of the budget's coeffsDropped. Withheld
	// coefficients are never marked delivered, so sessions converge once
	// the page heals.
	coeffsWithheld atomic.Int64
	abrBandwidth   atomic.Int64 // gauge, bytes/second
	abrRTT         atomic.Int64 // gauge, nanoseconds
	abrBudget      atomic.Int64 // gauge, bytes per frame

	latency   Histogram // per-request latency in nanoseconds
	requestIO Histogram // index node reads per request
	backoff   Histogram // client backoff sleeps in nanoseconds

	// Hot-region cache gauge sources (see AddHotCacheSource): pulled at
	// Snapshot time rather than recorded, because the caches own their
	// counters. Registration happens at startup; the mutex only guards
	// against a snapshot racing a late registration.
	hotMu      sync.Mutex
	hotSources []func() HotCacheStats

	// Page-cache gauge sources (see AddPagerSource): one per out-of-core
	// scene, pulled at Snapshot time like the hot-cache sources.
	pagerMu      sync.Mutex
	pagerSources []func() PagerStats

	// Query-coalescer gauge sources (see AddCoalescerSource): one per
	// scene with crowd coalescing on, pulled at Snapshot time.
	coalesceMu      sync.Mutex
	coalesceSources []func() CoalesceStats

	// Crowd/maintenance counters: scrub passes run by the background
	// scrubber (cmd/server -scrub-interval), budgeted frames whose hot
	// entry could not be replayed because the budget truncated the
	// response, and sub-queries searched without either sharing layer
	// because nobody had asked them before (DESIGN.md §16).
	scrubRuns       atomic.Int64
	hotBypassBudget atomic.Int64
	firstTouches    atomic.Int64

	breakdowns // per-scene and per-shard attribution (breakdown.go)
}

// HotCacheStats is one hot-region result cache's gauge set, pulled from
// a registered source at Snapshot time.
type HotCacheStats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	PinFails      int64 // inserts abandoned because a backing page was unreadable
	Entries       int64
	Bytes         int64
	Subscribers   int64 // open region subscriptions (gauge)
	SubRefreshes  int64 // multicast recomputations into subscribed buckets
	PayloadHits   int64 // responses replayed from a cached serialized payload
}

func (a HotCacheStats) add(b HotCacheStats) HotCacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	a.Invalidations += b.Invalidations
	a.PinFails += b.PinFails
	a.Entries += b.Entries
	a.Bytes += b.Bytes
	a.Subscribers += b.Subscribers
	a.SubRefreshes += b.SubRefreshes
	a.PayloadHits += b.PayloadHits
	return a
}

// AddHotCacheSource registers a gauge provider for one hot-region cache
// (typically one per scene). Snapshot sums every registered source into
// its Hot field. Call at startup, before serving.
func (s *Stats) AddHotCacheSource(fn func() HotCacheStats) {
	if s == nil || fn == nil {
		return
	}
	s.hotMu.Lock()
	s.hotSources = append(s.hotSources, fn)
	s.hotMu.Unlock()
}

// hotSnapshot sums the registered cache sources.
func (s *Stats) hotSnapshot() (HotCacheStats, int) {
	s.hotMu.Lock()
	sources := s.hotSources
	s.hotMu.Unlock()
	var sum HotCacheStats
	for _, fn := range sources {
		sum = sum.add(fn())
	}
	return sum, len(sources)
}

// PagerStats is one out-of-core page cache's gauge set, pulled from a
// registered source at Snapshot time (mirrors persist.PagerStats; this
// package must not import persist).
type PagerStats struct {
	Faults        int64
	Hits          int64
	Evictions     int64
	Pins          int64
	Retries       int64 // page re-reads after transient read faults
	FaultErrors   int64 // page reads that ultimately failed
	Quarantined   int64 // pages quarantined by permanent corruption
	PagesResident int64
	PagesPinned   int64
	ResidentBytes int64
	CacheBytes    int64
}

func (a PagerStats) add(b PagerStats) PagerStats {
	a.Faults += b.Faults
	a.Hits += b.Hits
	a.Evictions += b.Evictions
	a.Pins += b.Pins
	a.Retries += b.Retries
	a.FaultErrors += b.FaultErrors
	a.Quarantined += b.Quarantined
	a.PagesResident += b.PagesResident
	a.PagesPinned += b.PagesPinned
	a.ResidentBytes += b.ResidentBytes
	a.CacheBytes += b.CacheBytes
	return a
}

// AddPagerSource registers a gauge provider for one paged coefficient
// store (typically one per out-of-core scene). Snapshot sums every
// registered source into its Pager field. Call at startup, before
// serving.
func (s *Stats) AddPagerSource(fn func() PagerStats) {
	if s == nil || fn == nil {
		return
	}
	s.pagerMu.Lock()
	s.pagerSources = append(s.pagerSources, fn)
	s.pagerMu.Unlock()
}

// pagerSnapshot sums the registered page-cache sources.
func (s *Stats) pagerSnapshot() (PagerStats, int) {
	s.pagerMu.Lock()
	sources := s.pagerSources
	s.pagerMu.Unlock()
	var sum PagerStats
	for _, fn := range sources {
		sum = sum.add(fn())
	}
	return sum, len(sources)
}

// CoalesceStats is one query coalescer's gauge set, pulled from a
// registered source at Snapshot time (mirrors
// retrieval.CoalescerStats; this package must not import retrieval).
// Routed == Led + Shared + BypassCollision + BypassStale once traffic
// quiesces.
type CoalesceStats struct {
	Routed          int64
	Led             int64 // index searches actually executed by flight leaders
	Shared          int64 // sub-queries answered by adopting another session's pass
	BypassCollision int64 // bucket held a different exact query
	BypassStale     int64 // flight unstable or its epoch had moved
	Flights         int64 // current in-flight/lingering entries (gauge)
}

func (a CoalesceStats) add(b CoalesceStats) CoalesceStats {
	a.Routed += b.Routed
	a.Led += b.Led
	a.Shared += b.Shared
	a.BypassCollision += b.BypassCollision
	a.BypassStale += b.BypassStale
	a.Flights += b.Flights
	return a
}

// AddCoalescerSource registers a gauge provider for one query coalescer
// (typically one per scene with crowd coalescing enabled). Snapshot
// sums every registered source into its Coalesce field. Call at
// startup, before serving.
func (s *Stats) AddCoalescerSource(fn func() CoalesceStats) {
	if s == nil || fn == nil {
		return
	}
	s.coalesceMu.Lock()
	s.coalesceSources = append(s.coalesceSources, fn)
	s.coalesceMu.Unlock()
}

// coalesceSnapshot sums the registered coalescer sources.
func (s *Stats) coalesceSnapshot() (CoalesceStats, int) {
	s.coalesceMu.Lock()
	sources := s.coalesceSources
	s.coalesceMu.Unlock()
	var sum CoalesceStats
	for _, fn := range sources {
		sum = sum.add(fn())
	}
	return sum, len(sources)
}

// RecordScrub counts one background scrub pass over a paged store (see
// cmd/server -scrub-interval).
func (s *Stats) RecordScrub() {
	if s == nil {
		return
	}
	s.scrubRuns.Add(1)
}

// RecordHotBypassBudget counts one budgeted frame that was answered at
// a hot entry but could not reuse its cached payload — the budget
// truncated the response, so it paid the full encode pass.
func (s *Stats) RecordHotBypassBudget() {
	if s == nil {
		return
	}
	s.hotBypassBudget.Add(1)
}

// RecordFirstTouches counts n sub-queries of one request that a server
// with a hot cache or a coalescer searched directly, because the query
// had not been asked before (retrieval's second-touch admission). With
// both layers wired, SubQueries == Hot.Hits + FirstTouches +
// Coalesce.Routed once traffic quiesces.
func (s *Stats) RecordFirstTouches(n int64) {
	if s == nil {
		return
	}
	s.firstTouches.Add(n)
}

// Default is the process-wide collector. Components record into it
// unless given a dedicated Stats (tests that reconcile totals use their
// own instance).
var Default = New()

// New creates an empty collector.
func New() *Stats { return &Stats{} }

// SessionOpened records a new client session and raises the active
// gauge.
func (s *Stats) SessionOpened() {
	if s == nil {
		return
	}
	s.sessionsOpened.Add(1)
	s.sessionsActive.Add(1)
}

// SessionClosed lowers the active-session gauge.
func (s *Stats) SessionClosed() {
	if s == nil {
		return
	}
	s.sessionsActive.Add(-1)
}

// ActiveSessions returns the current active-session gauge.
func (s *Stats) ActiveSessions() int64 {
	if s == nil {
		return 0
	}
	return s.sessionsActive.Load()
}

// RecordRequest accounts one executed retrieval request: the sub-queries
// it ran, the index node reads it cost, the coefficients and payload
// bytes it delivered, and its latency.
func (s *Stats) RecordRequest(subQueries int, io, coeffs, bytes int64, latency time.Duration) {
	if s == nil {
		return
	}
	s.requests.Add(1)
	s.subQueries.Add(int64(subQueries))
	s.indexIO.Add(io)
	s.coeffs.Add(coeffs)
	s.bytes.Add(bytes)
	s.latency.Observe(int64(latency))
	s.requestIO.Observe(io)
}

// RecordError counts one protocol or transport error.
func (s *Stats) RecordError() {
	if s == nil {
		return
	}
	s.errors.Add(1)
}

// RecordRetry counts one client-side frame retry, observing the backoff
// sleep that preceded it.
func (s *Stats) RecordRetry(backoff time.Duration) {
	if s == nil {
		return
	}
	s.retries.Add(1)
	s.backoff.Observe(int64(backoff))
}

// RecordTimeout counts one frame attempt that exceeded its deadline.
func (s *Stats) RecordTimeout() {
	if s == nil {
		return
	}
	s.timeouts.Add(1)
}

// RecordResume counts one session-resume attempt by its outcome: hit
// means the peer still held the session state, miss means the client had
// to fall back to a full re-plan.
func (s *Stats) RecordResume(hit bool) {
	if s == nil {
		return
	}
	if hit {
		s.resumeHits.Add(1)
	} else {
		s.resumeMisses.Add(1)
	}
}

// RecordDegraded counts one degraded-mode activation (the client raised
// its effective resolution cutoff after repeated timeouts).
func (s *Stats) RecordDegraded() {
	if s == nil {
		return
	}
	s.degraded.Add(1)
}

// RecordShed counts one connection refused at the max-sessions limit.
func (s *Stats) RecordShed() {
	if s == nil {
		return
	}
	s.shed.Add(1)
}

// RecordFault counts one fault injected by the simulated wireless link
// (drop, corruption, or forced short write).
func (s *Stats) RecordFault() {
	if s == nil {
		return
	}
	s.faults.Add(1)
}

// RecordCheckpoint accounts one durable checkpoint written to disk and
// its size in bytes.
func (s *Stats) RecordCheckpoint(bytes int64) {
	if s == nil {
		return
	}
	s.checkpoints.Add(1)
	s.checkpointBytes.Add(bytes)
}

// RecordRecovery accounts one startup recovery pass: records replayed
// from disk, torn tails truncated, and records quarantined for
// checksum mismatch.
func (s *Stats) RecordRecovery(replayed, truncated, quarantined int64) {
	if s == nil {
		return
	}
	s.recordsReplayed.Add(replayed)
	s.tailsTruncated.Add(truncated)
	s.recordsQuarantined.Add(quarantined)
}

// RecordCompaction counts one session-journal compaction rewrite.
func (s *Stats) RecordCompaction() {
	if s == nil {
		return
	}
	s.journalCompactions.Add(1)
}

// RecordResumeRestored counts one resume served from state recovered
// off disk after a restart — always accompanied by a RecordResume(true)
// for the same handshake.
func (s *Stats) RecordResumeRestored() {
	if s == nil {
		return
	}
	s.resumesRestored.Add(1)
}

// RecordDrain counts one completed live scene drain (a scene relocated
// between cluster backends by checkpoint-ship-replay).
func (s *Stats) RecordDrain() {
	if s == nil {
		return
	}
	s.drains.Add(1)
}

// RecordBudget accounts one budgeted retrieval: the byte budget the
// client requested, the payload bytes served under it, and the
// coefficients the budget withheld (0 when the response fit).
func (s *Stats) RecordBudget(requested, served, droppedCoeffs int64) {
	if s == nil {
		return
	}
	s.budgetRequests.Add(1)
	s.budgetBytesRequested.Add(requested)
	s.budgetBytesServed.Add(served)
	if droppedCoeffs > 0 {
		s.truncatedResponses.Add(1)
		s.coeffsDropped.Add(droppedCoeffs)
	}
}

// RecordWithheld counts coefficients withheld from one frame because
// their backing page was unreadable (see DESIGN.md §15). They are never
// marked delivered, so the session converges once the page heals.
func (s *Stats) RecordWithheld(coeffs int64) {
	if s == nil {
		return
	}
	s.coeffsWithheld.Add(coeffs)
}

// SetABR publishes the client-side ABR loop's current state: the link
// bandwidth estimate (bytes/second), round-trip estimate, and the byte
// budget chosen for the next frame. Gauges, not counters — each call
// overwrites the last.
func (s *Stats) SetABR(bandwidth int64, rtt time.Duration, budget int64) {
	if s == nil {
		return
	}
	s.abrBandwidth.Store(bandwidth)
	s.abrRTT.Store(int64(rtt))
	s.abrBudget.Store(budget)
}

// RecordBuffer accounts one buffer-manager step: blocks found in the
// buffer, blocks fetched on demand, and the bytes moved over the link.
func (s *Stats) RecordBuffer(hits, misses int, demandBytes, prefetchBytes int64) {
	if s == nil {
		return
	}
	s.bufferHits.Add(int64(hits))
	s.bufferMisses.Add(int64(misses))
	s.demandBytes.Add(demandBytes)
	s.prefetchBytes.Add(prefetchBytes)
}

// Snapshot is a point-in-time copy of every counter. See the package
// comment for its (per-counter, not cross-counter) atomicity.
type Snapshot struct {
	SessionsOpened int64
	SessionsActive int64
	Requests       int64
	SubQueries     int64
	IndexIO        int64
	Coeffs         int64
	Bytes          int64
	Errors         int64

	BufferHits    int64
	BufferMisses  int64
	DemandBytes   int64
	PrefetchBytes int64

	Retries      int64
	Timeouts     int64
	ResumeHits   int64
	ResumeMisses int64
	Degraded     int64
	Shed         int64
	Faults       int64

	Checkpoints        int64
	CheckpointBytes    int64
	RecordsReplayed    int64
	TailsTruncated     int64
	RecordsQuarantined int64
	JournalCompactions int64
	ResumesRestored    int64

	Drains int64

	BudgetRequests       int64
	BudgetBytesRequested int64
	BudgetBytesServed    int64
	TruncatedResponses   int64
	CoeffsDropped        int64
	CoeffsWithheld       int64 // withheld by unreadable pages (disk faults)
	ABRBandwidth         int64 // gauge, bytes/second
	ABRRTT               time.Duration
	ABRBudget            int64 // gauge, bytes per frame

	// ScrubRuns counts background scrub passes over paged stores;
	// HotBypassBudget counts budgeted frames that could not replay a
	// cached hot payload (truncation forced a full encode);
	// FirstTouches counts sub-queries searched past both sharing layers
	// because they had not been asked before (see RecordFirstTouches).
	ScrubRuns       int64
	HotBypassBudget int64
	FirstTouches    int64

	Latency   HistogramSnapshot
	RequestIO HistogramSnapshot
	Backoff   HistogramSnapshot

	// Hot sums every registered hot-region cache's gauges (see
	// AddHotCacheSource); HotCaches is how many sources contributed —
	// zero means no cache is wired and the field is omitted from String.
	Hot       HotCacheStats
	HotCaches int

	// Pager sums every registered paged store's page-cache gauges (see
	// AddPagerSource); Pagers is how many sources contributed — zero
	// means every scene is in-memory and String omits the section.
	Pager  PagerStats
	Pagers int

	// Coalesce sums every registered query coalescer's gauges (see
	// AddCoalescerSource); Coalescers is how many sources contributed —
	// zero means no scene coalesces and String omits the section.
	Coalesce   CoalesceStats
	Coalescers int

	// Scenes breaks the request counters down by engine scene (nil unless
	// RecordScene ran); Shards breaks index search I/O down by shard (nil
	// unless a sharded index was wired via EnsureShards); Backends breaks
	// gateway routing down by backend address (nil unless a cluster
	// gateway recorded routes or probes).
	Scenes   map[string]SceneSnapshot
	Shards   []ShardSnapshot
	Backends map[string]BackendSnapshot
}

// Snapshot copies the current counter values.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	hot, hotCaches := s.hotSnapshot()
	pager, pagers := s.pagerSnapshot()
	coalesce, coalescers := s.coalesceSnapshot()
	return Snapshot{
		Hot:            hot,
		HotCaches:      hotCaches,
		Pager:          pager,
		Pagers:         pagers,
		Coalesce:       coalesce,
		Coalescers:     coalescers,
		SessionsOpened: s.sessionsOpened.Load(),
		SessionsActive: s.sessionsActive.Load(),
		Requests:       s.requests.Load(),
		SubQueries:     s.subQueries.Load(),
		IndexIO:        s.indexIO.Load(),
		Coeffs:         s.coeffs.Load(),
		Bytes:          s.bytes.Load(),
		Errors:         s.errors.Load(),
		BufferHits:     s.bufferHits.Load(),
		BufferMisses:   s.bufferMisses.Load(),
		DemandBytes:    s.demandBytes.Load(),
		PrefetchBytes:  s.prefetchBytes.Load(),
		Retries:        s.retries.Load(),
		Timeouts:       s.timeouts.Load(),
		ResumeHits:     s.resumeHits.Load(),
		ResumeMisses:   s.resumeMisses.Load(),
		Degraded:       s.degraded.Load(),
		Shed:           s.shed.Load(),
		Faults:         s.faults.Load(),

		Checkpoints:        s.checkpoints.Load(),
		CheckpointBytes:    s.checkpointBytes.Load(),
		RecordsReplayed:    s.recordsReplayed.Load(),
		TailsTruncated:     s.tailsTruncated.Load(),
		RecordsQuarantined: s.recordsQuarantined.Load(),
		JournalCompactions: s.journalCompactions.Load(),
		ResumesRestored:    s.resumesRestored.Load(),

		Drains: s.drains.Load(),

		BudgetRequests:       s.budgetRequests.Load(),
		BudgetBytesRequested: s.budgetBytesRequested.Load(),
		BudgetBytesServed:    s.budgetBytesServed.Load(),
		TruncatedResponses:   s.truncatedResponses.Load(),
		CoeffsDropped:        s.coeffsDropped.Load(),
		CoeffsWithheld:       s.coeffsWithheld.Load(),
		ABRBandwidth:         s.abrBandwidth.Load(),
		ABRRTT:               time.Duration(s.abrRTT.Load()),
		ABRBudget:            s.abrBudget.Load(),
		ScrubRuns:            s.scrubRuns.Load(),
		HotBypassBudget:      s.hotBypassBudget.Load(),
		FirstTouches:         s.firstTouches.Load(),

		Latency:   s.latency.Snapshot(),
		RequestIO: s.requestIO.Snapshot(),
		Backoff:   s.backoff.Snapshot(),
		Scenes:    s.sceneSnapshots(),
		Shards:    s.shardSnapshots(),
		Backends:  s.backendSnapshots(),
	}
}

func (s Snapshot) String() string {
	hot := ""
	if s.HotCaches > 0 {
		hot = fmt.Sprintf(" · hot cache %d/%d hit/miss · %d entries / %s · %d evicted · %d invalidated",
			s.Hot.Hits, s.Hot.Misses, s.Hot.Entries, fmtBytes(s.Hot.Bytes),
			s.Hot.Evictions, s.Hot.Invalidations)
		if s.Hot.Subscribers > 0 || s.Hot.SubRefreshes > 0 || s.Hot.PayloadHits > 0 {
			hot += fmt.Sprintf(" · %d subscribers · %d multicast refreshes · %d payload replays",
				s.Hot.Subscribers, s.Hot.SubRefreshes, s.Hot.PayloadHits)
		}
		if s.HotBypassBudget > 0 {
			hot += fmt.Sprintf(" · %d budget bypasses", s.HotBypassBudget)
		}
	}
	firstTouch := ""
	if s.HotCaches > 0 || s.Coalescers > 0 {
		firstTouch = fmt.Sprintf(" · first touch %d", s.FirstTouches)
	}
	coalesce := ""
	if s.Coalescers > 0 {
		coalesce = fmt.Sprintf(" · coalesce %d routed · %d led · %d shared · %d/%d collision/stale bypass",
			s.Coalesce.Routed, s.Coalesce.Led, s.Coalesce.Shared,
			s.Coalesce.BypassCollision, s.Coalesce.BypassStale)
	}
	pager := ""
	if s.Pagers > 0 {
		pager = fmt.Sprintf(" · pager %d/%d hit/fault · %d pages resident (%d pinned) / %s of %s · %d evicted",
			s.Pager.Hits, s.Pager.Faults, s.Pager.PagesResident, s.Pager.PagesPinned,
			fmtBytes(s.Pager.ResidentBytes), fmtBytes(s.Pager.CacheBytes), s.Pager.Evictions)
		// The disk-fault plane only prints when something went wrong:
		// healthy soaks keep the line short.
		if s.Pager.Retries > 0 || s.Pager.FaultErrors > 0 || s.Pager.Quarantined > 0 || s.CoeffsWithheld > 0 {
			pager += fmt.Sprintf(" · disk %d retries · %d read errors · %d quarantined · %d coeffs withheld",
				s.Pager.Retries, s.Pager.FaultErrors, s.Pager.Quarantined, s.CoeffsWithheld)
		}
		if s.Hot.PinFails > 0 {
			pager += fmt.Sprintf(" · %d hot-cache pin failures", s.Hot.PinFails)
		}
		if s.ScrubRuns > 0 {
			pager += fmt.Sprintf(" · %d scrub runs", s.ScrubRuns)
		}
	}
	abr := ""
	if s.BudgetRequests > 0 {
		abr = fmt.Sprintf(" · budget %d reqs %s/%s served/asked · truncated %d (%d coeffs withheld)",
			s.BudgetRequests, fmtBytes(s.BudgetBytesServed), fmtBytes(s.BudgetBytesRequested),
			s.TruncatedResponses, s.CoeffsDropped)
	}
	if s.ABRBandwidth > 0 {
		abr += fmt.Sprintf(" · abr bw %s/s rtt %v budget %s",
			fmtBytes(s.ABRBandwidth), s.ABRRTT.Round(time.Millisecond), fmtBytes(s.ABRBudget))
	}
	return fmt.Sprintf(
		"sessions %d/%d active/opened · requests %d (%d errors) · sub-queries %d · "+
			"index io %d · delivered %d coeffs / %s · latency mean %v p50 ≤%v p99 ≤%v · "+
			"buffer %d/%d hit/miss · link %s demand + %s prefetch · "+
			"retries %d (%d timeouts) · resume %d/%d hit/miss · degraded %d · shed %d · faults %d · "+
			"checkpoints %d / %s · recovery %d replayed / %d truncated / %d quarantined · "+
			"compactions %d · restored resumes %d · drains %d",
		s.SessionsActive, s.SessionsOpened, s.Requests, s.Errors, s.SubQueries,
		s.IndexIO, s.Coeffs, fmtBytes(s.Bytes),
		time.Duration(int64(s.Latency.Mean())).Round(time.Microsecond),
		time.Duration(s.Latency.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(s.Latency.Quantile(0.99)).Round(time.Microsecond),
		s.BufferHits, s.BufferMisses, fmtBytes(s.DemandBytes), fmtBytes(s.PrefetchBytes),
		s.Retries, s.Timeouts, s.ResumeHits, s.ResumeMisses, s.Degraded, s.Shed, s.Faults,
		s.Checkpoints, fmtBytes(s.CheckpointBytes),
		s.RecordsReplayed, s.TailsTruncated, s.RecordsQuarantined,
		s.JournalCompactions, s.ResumesRestored, s.Drains) +
		firstTouch + hot + coalesce + pager + abr + s.breakdownString()
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// StartLogging dumps a snapshot line through logf every interval until
// the returned stop function is called. Stop is idempotent and waits for
// the logging goroutine to exit.
func (s *Stats) StartLogging(interval time.Duration, logf func(format string, args ...any)) (stop func()) {
	if s == nil || logf == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				logf("stats: %v", s.Snapshot())
			case <-done:
				return
			}
		}
	}()
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			close(done)
			<-finished
		}
	}
}
