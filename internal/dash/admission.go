package dash

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// admission is the dashboard's overload gate. The dash serves whoever
// asks — production scrape fleets ask hard — and without a gate a burst
// of scrapers queues unboundedly inside net/http, stretching every
// response until the probes themselves time out. The gate bounds
// concurrent work instead: past the watermark, requests are refused
// immediately with 503 and a Retry-After, which keeps the served
// requests fast and tells well-behaved clients when to come back.
// Refusals are counted, never silent.
type admission struct {
	max        int64
	retryAfter time.Duration

	inflight atomic.Int64
	requests atomic.Uint64 // all requests seen by the gate
	rejected atomic.Uint64 // requests refused with 503
}

// WithAdmission bounds concurrent request handling at max in-flight
// requests (max must be at least 1) and returns the server. Requests past
// the watermark receive 503 with a Retry-After of retryAfter (rounded up
// to whole seconds, minimum 1). /healthz bypasses the gate: liveness
// must stay answerable precisely when the dashboard is shedding load,
// or the orchestrator kills an overloaded-but-healthy process.
// /api/alerts bypasses it for the same reason: overload is exactly when
// an operator needs to see what is firing, and the alert snapshot is a
// small in-memory read that cannot compound the overload.
func (s *Server) WithAdmission(max int, retryAfter time.Duration) *Server {
	s.adm = &admission{max: int64(max), retryAfter: retryAfter}
	return s
}

// wrap applies the admission gate to the routed handler.
func (a *admission) wrap(next http.Handler) http.Handler {
	secs := int64(a.retryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	retryAfter := strconv.FormatInt(secs, 10)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.requests.Add(1)
		if r.URL.Path == "/healthz" || r.URL.Path == "/api/alerts" {
			next.ServeHTTP(w, r)
			return
		}
		if a.inflight.Add(1) > a.max {
			a.inflight.Add(-1)
			a.rejected.Add(1)
			w.Header().Set("Retry-After", retryAfter)
			writeJSONError(w, http.StatusServiceUnavailable, "overloaded: too many in-flight requests")
			return
		}
		defer a.inflight.Add(-1)
		next.ServeHTTP(w, r)
	})
}

// scrapeCache coalesces identical reads within a collection round. The
// dashboard's expensive endpoints render the same bytes for every caller
// until the next round lands, so under a scraper fleet the cache turns
// N identical renders per round into 1. Entries expire on a TTL and on
// explicit invalidation (the collector bumps the generation when a round
// completes), whichever comes first.
type scrapeCache struct {
	ttl time.Duration
	gen atomic.Uint64

	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheEntry struct {
	gen     uint64
	expires time.Time
	status  int
	ctype   string
	body    []byte
}

// cacheablePaths are the endpoints worth coalescing: rendered from
// whole-fleet state, identical for every caller, and hot under scrape
// load. Parameterised endpoints (per-host windows, logs) stay uncached —
// their key space is unbounded and per-client.
var cacheablePaths = map[string]bool{
	"/metrics":    true,
	"/api/series": true,
	"/api/rounds": true,
	"/api/gaps":   true,
}

// WithScrapeCache caches responses of the hot scrape endpoints for ttl
// (values <= 0 disable caching) and returns the server. Call
// InvalidateScrapeCache when new data lands so scrapes never serve a
// stale round past its replacement.
func (s *Server) WithScrapeCache(ttl time.Duration) *Server {
	if ttl <= 0 {
		return s
	}
	s.cache = &scrapeCache{ttl: ttl, entries: make(map[string]*cacheEntry)}
	return s
}

// InvalidateScrapeCache drops every cached response by bumping the cache
// generation. It is cheap (one atomic add) and safe from any goroutine,
// so collection rounds call it inline when they publish new state. A
// no-op without a cache.
func (s *Server) InvalidateScrapeCache() {
	if s.cache != nil {
		s.cache.gen.Add(1)
	}
}

// wrap applies response caching to the routed handler.
func (c *scrapeCache) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !cacheablePaths[r.URL.Path] {
			next.ServeHTTP(w, r)
			return
		}
		key := r.URL.Path
		gen := c.gen.Load()
		now := time.Now()
		c.mu.Lock()
		e := c.entries[key]
		if e != nil && e.gen == gen && now.Before(e.expires) {
			c.mu.Unlock()
			c.hits.Add(1)
			w.Header().Set("Content-Type", e.ctype)
			w.Header().Set("X-Frostlab-Cache", "hit")
			w.WriteHeader(e.status)
			_, _ = w.Write(e.body)
			return
		}
		c.mu.Unlock()
		c.misses.Add(1)
		rec := &captureWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		if rec.status == http.StatusOK {
			c.mu.Lock()
			c.entries[key] = &cacheEntry{
				gen:     gen,
				expires: now.Add(c.ttl),
				status:  rec.status,
				ctype:   rec.Header().Get("Content-Type"),
				body:    rec.buf.Bytes(),
			}
			c.mu.Unlock()
		}
	})
}

// captureWriter tees a response into a buffer so a 200 can be cached.
type captureWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
	buf    bytes.Buffer
}

func (cw *captureWriter) WriteHeader(status int) {
	if !cw.wrote {
		cw.wrote = true
		cw.status = status
	}
	cw.ResponseWriter.WriteHeader(status)
}

func (cw *captureWriter) Write(b []byte) (int, error) {
	cw.wrote = true
	cw.buf.Write(b)
	return cw.ResponseWriter.Write(b)
}
