// Package stats is the server's observability layer: one fixed table of
// atomic counters and lock-free histograms that the serving layers
// (retrieval, proto, engine, cluster, buffer, index and the fault
// injectors) update on their hot paths. Each row is a Counter (or Hist)
// constant, one atomic slot and a dotted "layer.quantity" name, named for
// the layer that records it; adding a counter is one constant and one
// name. Recording is wait-free (atomic adds only), so the table is safe
// to share between every session goroutine of a multi-client server
// without adding lock contention to the read path.
//
// Snapshot() reads every row individually; it is not a single atomic
// cut across all of them. Counters monotonically increase (the gauges
// excepted), so totals taken after the workload quiesces are exact;
// totals taken mid-flight may be torn across rows by in-flight requests,
// which is the usual and acceptable semantics for monitoring reads.
package stats

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter indexes one row of the table.
type Counter int

// The rows, grouped by the layer that records them. Gauges are marked;
// every other row only grows.
const (
	// proto.Server: sessions, errors, shedding, resumes, encode-time
	// withholding.
	ProtoSessionsOpened Counter = iota
	ProtoSessionsReused         // sessions a greeting or scene select took from its scene's released ones
	ProtoSessionsActive         // gauge
	ProtoErrors
	ProtoShed // connections refused at the session limit
	ProtoResumeHits
	ProtoResumeMisses
	ProtoResumesRestored // resumes served from a journal recovered after a restart (⊆ resume hits)
	ProtoCoeffsWithheld  // coefficients withheld at encode time: page unreadable

	// retrieval.Server.execute, once per request.
	RetrievalRequests
	RetrievalSubQueries
	RetrievalNodeIO
	RetrievalCoeffs
	RetrievalRawHits // index hits merged, summed over sub-queries
	RetrievalBytes
	RetrievalFirstTouches // sub-queries searched past both sharing layers (never asked before)
	RetrievalBudgetRequests
	RetrievalBudgetBytesAsked
	RetrievalBudgetBytesServed
	RetrievalTruncated      // budgeted responses the cut truncated
	RetrievalCoeffsDropped  // coefficients those cuts withheld
	RetrievalCoeffsWithheld // coefficients withheld at merge time: page unreadable

	// Sources (see AddSource): sharing tables (the hotcache.* and
	// coalescer.* rows) and page caches own their counters and add them
	// at Snapshot time.
	HotHits
	HotMisses
	HotEvictions
	HotEntries // gauge
	HotBytes   // gauge
	HotSubscribers
	HotPayloadHits  // responses replayed from a cached serialized payload
	CoalescerRouted // admitted misses: = led + shared, once quiesced
	CoalescerLed
	CoalescerShared  // waits on an unfilled entry
	CoalescerFlights // gauge: unfilled entries
	PagerFaults
	PagerHits
	PagerEvictions
	PagerPins // = hits + faults
	PagerRetries
	PagerFaultErrors
	PagerQuarantined
	PagerPagesResident // gauge
	PagerPagesPinned   // gauge
	PagerResidentBytes // gauge
	PagerCacheBytes    // gauge

	// engine: scene files written (once, on the boot that builds the
	// scenes), startup recovery, journal compaction, background scrub.
	EngineCheckpoints
	EngineCheckpointBytes
	EngineRecordsReplayed
	EngineTailsTruncated
	EngineRecordsQuarantined
	EngineJournalCompactions
	EngineScrubRuns

	// cluster.Controller: completed live scene drains.
	ClusterDrains

	// proto.ResilientClient, and its ABR loop's gauges.
	ClientRetries
	ClientTimeouts
	ClientResumes
	ClientReplans
	ClientSplitFrames  // frames the link could not carry whole, retried as budgeted pieces
	ClientPieces       // budgeted pieces those frames received
	ClientABRBandwidth // gauge, bytes/second
	ClientABRRTTNs     // gauge
	ClientABRBudget    // gauge, bytes per frame

	// buffer.Manager, once per step.
	BufferHits
	BufferMisses
	BufferDemandBytes
	BufferPrefetchBytes

	// Injected faults, one row per plane: faultnet's wireless link and
	// faultdisk's disk.
	LinkFaults
	DiskFaults

	numCounters
)

var counterNames = [numCounters]string{
	ProtoSessionsOpened:  "proto.sessions_opened",
	ProtoSessionsReused:  "proto.sessions_reused",
	ProtoSessionsActive:  "proto.sessions_active",
	ProtoErrors:          "proto.errors",
	ProtoShed:            "proto.shed",
	ProtoResumeHits:      "proto.resume_hits",
	ProtoResumeMisses:    "proto.resume_misses",
	ProtoResumesRestored: "proto.resumes_restored",
	ProtoCoeffsWithheld:  "proto.coeffs_withheld",

	RetrievalRequests:          "retrieval.requests",
	RetrievalSubQueries:        "retrieval.sub_queries",
	RetrievalNodeIO:            "retrieval.node_io",
	RetrievalCoeffs:            "retrieval.coeffs",
	RetrievalRawHits:           "retrieval.raw_hits",
	RetrievalBytes:             "retrieval.bytes",
	RetrievalFirstTouches:      "retrieval.first_touches",
	RetrievalBudgetRequests:    "retrieval.budget_requests",
	RetrievalBudgetBytesAsked:  "retrieval.budget_bytes_asked",
	RetrievalBudgetBytesServed: "retrieval.budget_bytes_served",
	RetrievalTruncated:         "retrieval.truncated_responses",
	RetrievalCoeffsDropped:     "retrieval.coeffs_dropped",
	RetrievalCoeffsWithheld:    "retrieval.coeffs_withheld",

	HotHits:            "hotcache.hits",
	HotMisses:          "hotcache.misses",
	HotEvictions:       "hotcache.evictions",
	HotEntries:         "hotcache.entries",
	HotBytes:           "hotcache.bytes",
	HotSubscribers:     "hotcache.subscribers",
	HotPayloadHits:     "hotcache.payload_hits",
	CoalescerRouted:    "coalescer.routed",
	CoalescerLed:       "coalescer.led",
	CoalescerShared:    "coalescer.shared",
	CoalescerFlights:   "coalescer.flights",
	PagerFaults:        "pager.faults",
	PagerHits:          "pager.hits",
	PagerEvictions:     "pager.evictions",
	PagerPins:          "pager.pins",
	PagerRetries:       "pager.retries",
	PagerFaultErrors:   "pager.fault_errors",
	PagerQuarantined:   "pager.quarantined",
	PagerPagesResident: "pager.pages_resident",
	PagerPagesPinned:   "pager.pages_pinned",
	PagerResidentBytes: "pager.resident_bytes",
	PagerCacheBytes:    "pager.cache_bytes",

	EngineCheckpoints:        "engine.checkpoints",
	EngineCheckpointBytes:    "engine.checkpoint_bytes",
	EngineRecordsReplayed:    "engine.records_replayed",
	EngineTailsTruncated:     "engine.tails_truncated",
	EngineRecordsQuarantined: "engine.records_quarantined",
	EngineJournalCompactions: "engine.journal_compactions",
	EngineScrubRuns:          "engine.scrub_runs",

	ClusterDrains: "cluster.drains",

	ClientRetries:      "client.retries",
	ClientTimeouts:     "client.timeouts",
	ClientResumes:      "client.resumes",
	ClientReplans:      "client.replans",
	ClientSplitFrames:  "client.split_frames",
	ClientPieces:       "client.pieces",
	ClientABRBandwidth: "client.abr_bandwidth",
	ClientABRRTTNs:     "client.abr_rtt_ns",
	ClientABRBudget:    "client.abr_budget",

	BufferHits:          "buffer.hits",
	BufferMisses:        "buffer.misses",
	BufferDemandBytes:   "buffer.demand_bytes",
	BufferPrefetchBytes: "buffer.prefetch_bytes",

	LinkFaults: "link.faults",
	DiskFaults: "disk.faults",
}

// Hist indexes one histogram of the table.
type Hist int

const (
	// RetrievalExecuteNs times retrieval.execute alone: not the frame's
	// read, encode or write.
	RetrievalExecuteNs Hist = iota
	RetrievalRequestNodeIO
	ClientBackoffNs // the resilient client's sleep before each retry
	numHists
)

var histNames = [numHists]string{
	RetrievalExecuteNs:     "retrieval.execute_ns",
	RetrievalRequestNodeIO: "retrieval.request_node_io",
	ClientBackoffNs:        "client.backoff_ns",
}

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

// Stats is the table. The zero value is ready to use; every method is
// safe on a nil receiver (recording no-ops, reads return zero), so call
// sites can wire an optional *Stats without guards.
type Stats struct {
	v [numCounters]atomic.Int64
	h [numHists]Histogram

	// sources are pulled at Snapshot time (see AddSource). Registration
	// happens at startup; the mutex only guards against a snapshot racing
	// a late registration.
	srcMu   sync.Mutex
	sources []func(*Values)

	breakdowns // per-scene, per-backend and per-shard rows (breakdown.go)
}

// Default is the process-wide collector. Components record into it
// unless given a dedicated Stats (tests that reconcile totals use their
// own instance).
var Default = New()

// New creates an empty collector.
func New() *Stats { return &Stats{} }

// Add adds n to row c.
func (s *Stats) Add(c Counter, n int64) {
	if s != nil {
		s.v[c].Add(n)
	}
}

// Set overwrites gauge row c with v.
func (s *Stats) Set(c Counter, v int64) {
	if s != nil {
		s.v[c].Store(v)
	}
}

// Load returns row c's recorded value (sources are not consulted; see
// Snapshot).
func (s *Stats) Load(c Counter) int64 {
	if s == nil {
		return 0
	}
	return s.v[c].Load()
}

// Observe records one value into histogram h.
func (s *Stats) Observe(h Hist, v int64) {
	if s != nil {
		s.h[h].Observe(v)
	}
}

// Values holds one value per row, indexed by Counter.
type Values [numCounters]int64

// AddSource registers fn, which a layer that owns its counters (a
// sharing table or a page cache) uses to add its rows
// into every Snapshot. fn writes with +=, so several sources of one kind
// sum. Call at startup, before serving.
func (s *Stats) AddSource(fn func(*Values)) {
	if s == nil || fn == nil {
		return
	}
	s.srcMu.Lock()
	s.sources = append(s.sources, fn)
	s.srcMu.Unlock()
}

// Snapshot is a point-in-time copy of the table. See the package comment
// for its (per-row, not cross-row) atomicity.
type Snapshot struct {
	V Values
	H [numHists]HistogramSnapshot

	// Scenes and Backends are the labelled breakdowns (nil until a row is
	// recorded); Shards is the per-shard table (nil until EnsureShards).
	Scenes   map[string]RowValues
	Shards   []RowValues
	Backends map[string]RowValues
}

// Get returns row c.
func (s Snapshot) Get(c Counter) int64 { return s.V[c] }

// Snapshot copies the current table, with every source's rows added in.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	var snap Snapshot
	for c := range s.v {
		snap.V[c] = s.v[c].Load()
	}
	for h := range s.h {
		snap.H[h] = s.h[h].Snapshot()
	}
	s.srcMu.Lock()
	sources := s.sources
	s.srcMu.Unlock()
	for _, fn := range sources {
		fn(&snap.V)
	}
	snap.Scenes = s.labelSnapshot(Scenes)
	snap.Backends = s.labelSnapshot(Backends)
	snap.Shards = s.shardSnapshot()
	return snap
}

// String renders every nonzero row as "name value", every nonempty
// histogram as its mean, p50 and p99, then the breakdowns; " · "
// separates entries.
func (s Snapshot) String() string {
	var b strings.Builder
	next := func() {
		if b.Len() > 0 {
			b.WriteString(" · ")
		}
	}
	for c, v := range s.V {
		if v != 0 {
			next()
			fmt.Fprintf(&b, "%s %d", counterNames[c], v)
		}
	}
	for h, hs := range s.H {
		if hs.Count > 0 {
			next()
			fmt.Fprintf(&b, "%s mean %.0f p50 ≤%d p99 ≤%d", histNames[h], hs.Mean(), hs.Quantile(0.50), hs.Quantile(0.99))
		}
	}
	s.writeBreakdowns(&b, next)
	return b.String()
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
