package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ServerStats accumulates the request-level counters of the serving
// layer (internal/server, cmd/pdced). Like the rest of this package it
// is nil-safe — every method does nothing on a nil receiver — and safe
// for concurrent use: counters are atomic, the latency reservoir takes
// a short mutex per sample.
//
// The counters classify each request's path through the server:
// a request is answered from the in-memory or spilled cache (CacheHits),
// coalesced onto a concurrent identical computation (Dedups), shed at
// admission (ShedQueueFull) or during drain (ShedDraining), or actually
// optimized (Optimizes — the only counter whose increment means solver
// work happened). Panics and Degraded track the containment layer's
// outcomes; ParseFailures the inputs that never reached the optimizer.
// KeyAliasHits/Misses classify how each request's cache key was found:
// through the raw-request alias memo, or by parsing.
type ServerStats struct {
	requests      atomic.Int64
	batchRequests atomic.Int64
	optimizes     atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	dedups        atomic.Int64
	shedQueueFull atomic.Int64
	shedDraining  atomic.Int64
	panics        atomic.Int64
	degraded      atomic.Int64
	parseFailures atomic.Int64
	aliasHits     atomic.Int64
	aliasMisses   atomic.Int64

	mu      sync.Mutex
	lat     []int64 // ring buffer of request latencies, ns
	next    int
	samples int64
}

// latencyWindow is the reservoir size backing the latency percentiles:
// large enough for stable p95 figures, small enough that a snapshot
// copy is cheap.
const latencyWindow = 1024

// Nil-safe counter increments, one per request classification.

func (s *ServerStats) AddRequest() {
	if s != nil {
		s.requests.Add(1)
	}
}

func (s *ServerStats) AddBatchRequest() {
	if s != nil {
		s.batchRequests.Add(1)
	}
}

func (s *ServerStats) AddOptimize() {
	if s != nil {
		s.optimizes.Add(1)
	}
}

func (s *ServerStats) AddCacheHit() {
	if s != nil {
		s.cacheHits.Add(1)
	}
}

func (s *ServerStats) AddCacheMiss() {
	if s != nil {
		s.cacheMisses.Add(1)
	}
}

func (s *ServerStats) AddDedup() {
	if s != nil {
		s.dedups.Add(1)
	}
}

func (s *ServerStats) AddShedQueueFull() {
	if s != nil {
		s.shedQueueFull.Add(1)
	}
}

func (s *ServerStats) AddShedDraining() {
	if s != nil {
		s.shedDraining.Add(1)
	}
}

func (s *ServerStats) AddPanic() {
	if s != nil {
		s.panics.Add(1)
	}
}

func (s *ServerStats) AddDegraded() {
	if s != nil {
		s.degraded.Add(1)
	}
}

func (s *ServerStats) AddParseFailure() {
	if s != nil {
		s.parseFailures.Add(1)
	}
}

// AddKeyAliasHit counts a request whose cache key came from the alias
// memo (no parse, no canonical re-rendering); AddKeyAliasMiss one that
// had to be parsed to find it.
func (s *ServerStats) AddKeyAliasHit() {
	if s != nil {
		s.aliasHits.Add(1)
	}
}

func (s *ServerStats) AddKeyAliasMiss() {
	if s != nil {
		s.aliasMisses.Add(1)
	}
}

// RecordLatency feeds one served request's wall-clock duration into
// the percentile reservoir (a fixed ring of the most recent samples).
func (s *ServerStats) RecordLatency(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.lat == nil {
		s.lat = make([]int64, 0, latencyWindow)
	}
	if len(s.lat) < latencyWindow {
		s.lat = append(s.lat, int64(d))
	} else {
		s.lat[s.next] = int64(d)
	}
	s.next = (s.next + 1) % latencyWindow
	s.samples++
	s.mu.Unlock()
}

// Optimizes returns the number of actual optimizer runs so far — the
// counter E2E tests watch to prove a cache hit did no solver work.
func (s *ServerStats) Optimizes() int64 {
	if s == nil {
		return 0
	}
	return s.optimizes.Load()
}

// ServerSnapshot is the frozen, JSON-taggable view of ServerStats —
// the "server" section of pdced's /metrics payload.
type ServerSnapshot struct {
	Requests      int64 `json:"requests"`
	BatchRequests int64 `json:"batch_requests"`
	// Optimizes counts actual optimizer runs; every other request was
	// answered from the cache, coalesced, or shed.
	Optimizes   int64 `json:"optimizes"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CacheHitRate is hits/(hits+misses) over served lookups.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Dedups counts requests coalesced onto an identical in-flight
	// computation by singleflight.
	Dedups int64 `json:"dedups"`
	// Load shedding: requests rejected because the admission queue was
	// full (429) or the server was draining (503).
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedDraining  int64 `json:"shed_draining"`
	// Containment outcomes: contained optimizer panics (500) and
	// degraded partial results (deadline/rollback, served 200).
	Panics        int64 `json:"panics"`
	Degraded      int64 `json:"degraded"`
	ParseFailures int64 `json:"parse_failures"`
	// Key resolution: requests keyed through the raw-request alias
	// memo versus by parsing.
	KeyAliasHits   int64 `json:"key_alias_hits"`
	KeyAliasMisses int64 `json:"key_alias_misses"`

	// Request latency over the most recent window (nearest-rank
	// percentiles); Samples is the lifetime sample count.
	P50NS   int64 `json:"p50_ns"`
	P95NS   int64 `json:"p95_ns"`
	MaxNS   int64 `json:"max_ns"`
	Samples int64 `json:"latency_samples"`
}

// Snapshot freezes the counters and computes the latency percentiles.
// Nil-safe: a nil receiver yields a zero snapshot.
func (s *ServerStats) Snapshot() ServerSnapshot {
	if s == nil {
		return ServerSnapshot{}
	}
	snap := ServerSnapshot{
		Requests:       s.requests.Load(),
		BatchRequests:  s.batchRequests.Load(),
		Optimizes:      s.optimizes.Load(),
		CacheHits:      s.cacheHits.Load(),
		CacheMisses:    s.cacheMisses.Load(),
		Dedups:         s.dedups.Load(),
		ShedQueueFull:  s.shedQueueFull.Load(),
		ShedDraining:   s.shedDraining.Load(),
		Panics:         s.panics.Load(),
		Degraded:       s.degraded.Load(),
		ParseFailures:  s.parseFailures.Load(),
		KeyAliasHits:   s.aliasHits.Load(),
		KeyAliasMisses: s.aliasMisses.Load(),
	}
	if lookups := snap.CacheHits + snap.CacheMisses; lookups > 0 {
		snap.CacheHitRate = float64(snap.CacheHits) / float64(lookups)
	}

	s.mu.Lock()
	lat := make([]int64, len(s.lat))
	copy(lat, s.lat)
	snap.Samples = s.samples
	s.mu.Unlock()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		snap.P50NS = lat[nearestRank(len(lat), 50)]
		snap.P95NS = lat[nearestRank(len(lat), 95)]
		snap.MaxNS = lat[len(lat)-1]
	}
	return snap
}

// nearestRank returns the 0-based index of the p-th percentile under
// the nearest-rank definition for a sorted sample of size n.
func nearestRank(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}
