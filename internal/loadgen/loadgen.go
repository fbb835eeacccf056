package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"frostlab/internal/chaos"
	"frostlab/internal/dash"
	"frostlab/internal/monitor"
	"frostlab/internal/telemetry"
)

// Fixed shape of every load run.
const (
	// spikeMultiplier scales SustainRate during the spike: the "5× rated
	// load" the degradation tests demand.
	spikeMultiplier = 5
	// roundConcurrency caps parallel host collections per round.
	roundConcurrency = 32
	// retryAfter is the dashboard's advisory backoff on 503s.
	retryAfter = time.Second
	// cacheTTL bounds scrape-cache staleness; rounds also invalidate the
	// cache explicitly when they publish.
	cacheTTL = time.Second
	// mirrorRetain caps each mirrored file's raw bytes so fleet memory
	// stays bounded over long runs.
	mirrorRetain = 64 << 10
)

// Config shapes one load run. Zero values take the defaults noted on
// each field; Seed is the only field without a usable zero value.
type Config struct {
	// Seed roots every random draw: the arrival schedule, the endpoint
	// mix, and the chaos pool faults. Same seed + same config ⇒ same
	// schedule, bit for bit.
	Seed string

	// Agents is the simulated nodeagent fleet size (default 64).
	Agents int
	// Scrapers is the concurrent HTTP client fleet size (default 16).
	Scrapers int
	// SustainRate is the offered load in requests/second during the
	// sustain phase (default 400). Warmup runs at a quarter of it, the
	// spike at spikeMultiplier times it.
	SustainRate float64

	// Phase durations (defaults 500ms, 500ms, 3s, 1s — the E15 profile).
	Warmup, Ramp, Sustain, Spike time.Duration

	// RoundEvery is the collection-round cadence during the run
	// (default 250ms).
	RoundEvery time.Duration

	// QueueCapacity bounds the post-round ingestion queue (default 4).
	QueueCapacity int
	// MaxInflight is the dashboard admission watermark (default 64).
	MaxInflight int

	// PendingBuffer is the arrival feed depth between the open-loop
	// generator and the scraper fleet (default 4 × Scrapers). Arrivals
	// that find it full are dropped and counted, never queued late.
	PendingBuffer int

	// PStaleConn is the per-(host, round) probability that a pooled
	// keepalive went stale while parked (default 0 = no chaos).
	PStaleConn float64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Agents <= 0 {
		c.Agents = 64
	}
	if c.Scrapers <= 0 {
		c.Scrapers = 16
	}
	if c.SustainRate <= 0 {
		c.SustainRate = 400
	}
	if c.Warmup <= 0 {
		c.Warmup = 500 * time.Millisecond
	}
	if c.Ramp <= 0 {
		c.Ramp = 500 * time.Millisecond
	}
	if c.Sustain <= 0 {
		c.Sustain = 3 * time.Second
	}
	if c.Spike <= 0 {
		c.Spike = time.Second
	}
	if c.RoundEvery <= 0 {
		c.RoundEvery = 250 * time.Millisecond
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 4
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.PendingBuffer <= 0 {
		c.PendingBuffer = 4 * c.Scrapers
	}
	return c
}

// phaseCounters is one phase's classification tally.
type phaseCounters struct {
	arrivals  atomic.Uint64
	ok        atomic.Uint64
	rejected  atomic.Uint64
	errors    atomic.Uint64
	dropped   atomic.Uint64
	cacheHits atomic.Uint64
}

// Run drives the full load profile against an in-process serving plane
// and returns the report. The plane is the production wiring end to
// end — wire-protocol collection with a keepalive pool, bounded ingest
// queue, dash with admission and scrape cache — only the TCP listener is
// replaced by direct handler dispatch, so a run needs no ports.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	goroutinesBefore := runtime.NumGoroutine()
	t0 := time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)

	// Simulated fleet: one in-process agent per host, pre-seeded with a
	// ledger line and one sensor sample each.
	hosts := make([]string, cfg.Agents)
	agents := make(map[string]*monitor.Agent, cfg.Agents)
	keys := make(map[string][]byte, cfg.Agents)
	stores := make(map[string]*monitor.FileStore, cfg.Agents)
	for i := range hosts {
		id := cfg.hostID(i)
		hosts[i] = id
		store := monitor.NewFileStore()
		store.Append(monitor.MD5Log, []byte(t0.Format(time.RFC3339)+" OK d41d8cd98f00b204e9800998ecf8427e\n"))
		store.Append(monitor.SensorLog, sensorLine(t0, 0, i))
		stores[id] = store
		agents[id] = monitor.NewAgent(id, store)
		keys[id] = []byte("psk-" + cfg.Seed + "-" + id)
	}

	var poolFault func(string, int) bool
	if cfg.PStaleConn > 0 {
		inj, err := chaos.New(chaos.Spec{Seed: cfg.Seed + "/chaos", PStaleConn: cfg.PStaleConn})
		if err != nil {
			return nil, err
		}
		poolFault = inj.StaleConn
	}

	samples := monitor.NewSampleDB()
	coll := monitor.NewCollector(0).WithSamples(samples)
	coll.SetRetention(mirrorRetain)
	fc, err := monitor.NewFleetCollector(coll, monitor.FleetConfig{
		Hosts:        hosts,
		Dial:         monitor.InProcessDialer(agents, keys, cfg.Seed),
		KeyFor:       func(id string) ([]byte, error) { return keys[id], nil },
		NonceFor:     monitor.InProcessNonces(cfg.Seed),
		Retry:        monitor.RetryPolicy{MaxAttempts: 2, BaseBackoff: 10 * time.Millisecond, Multiplier: 2, JitterFrac: 0.5},
		Breaker:      monitor.BreakerConfig{Trip: 3, Cooldown: 3},
		PhaseTimeout: 2 * time.Second,
		RoundTimeout: 30 * time.Second,
		Jitter:       monitor.DeterministicJitter(cfg.Seed),
		Concurrency:  roundConcurrency,
		Pool:         &monitor.PoolConfig{Fault: poolFault},
	})
	if err != nil {
		return nil, err
	}

	queue := monitor.NewIngestQueue(cfg.QueueCapacity)
	reg := telemetry.NewRegistry()
	fc.Instrument(reg)
	queue.Instrument(reg)

	srv := dash.NewServer(coll, hosts, t0).
		WithLedger(fc.Ledger()).
		WithAdmission(cfg.MaxInflight, retryAfter).
		WithScrapeCache(cacheTTL).
		WithTelemetry(reg)
	handler := srv.Handler()

	var phases [NumPhases]phaseCounters
	var hists [NumPhases]Hist
	reg.CounterFunc("frostlab_loadgen_arrivals_total",
		"Scheduled arrivals fed to the scraper fleet.",
		func() float64 {
			var n uint64
			for i := range phases {
				n += phases[i].arrivals.Load()
			}
			return float64(n)
		})
	reg.CounterFunc("frostlab_loadgen_dropped_total",
		"Arrivals dropped at the feed point because the scraper fleet was saturated.",
		func() float64 {
			var n uint64
			for i := range phases {
				n += phases[i].dropped.Load()
			}
			return float64(n)
		})

	// Scraper fleet: workers pull scheduled arrivals and dispatch them
	// in-process through the full middleware stack.
	arrCh := make(chan Arrival, cfg.PendingBuffer)
	var scrapeWG sync.WaitGroup
	for w := 0; w < cfg.Scrapers; w++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for a := range arrCh {
				pc := &phases[a.Phase]
				req, err := http.NewRequest("GET", a.Path, nil)
				if err != nil {
					pc.errors.Add(1)
					continue
				}
				rec := httptest.NewRecorder()
				rec.Body = nil // discard payloads; status and headers suffice
				start := time.Now()
				handler.ServeHTTP(rec, req)
				hists[a.Phase].Record(time.Since(start))
				switch {
				case rec.Code == http.StatusServiceUnavailable:
					pc.rejected.Add(1)
				case rec.Code >= 200 && rec.Code < 300:
					pc.ok.Add(1)
					if rec.Header().Get("X-Frostlab-Cache") == "hit" {
						pc.cacheHits.Add(1)
					}
				default:
					pc.errors.Add(1)
				}
			}
		}()
	}

	// Liveness prober: healthz must answer throughout, especially while
	// the admission gate is shedding — it bypasses the gate by design.
	var probes, probeFailures atomic.Uint64
	probeDone := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-probeDone:
				return
			case <-tick.C:
				req, _ := http.NewRequest("GET", "/healthz", nil)
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				probes.Add(1)
				if rec.Code != http.StatusOK {
					probeFailures.Add(1)
				}
			}
		}
	}()

	// Collection rounds run concurrently with the scrape load, exactly
	// as collectord's do: collect, hand ingestion to the bounded queue,
	// publish, invalidate the scrape cache.
	roundHist := &Hist{}
	roundDone := make(chan struct{})
	var roundWG sync.WaitGroup
	roundWG.Add(1)
	go func() {
		defer roundWG.Done()
		tick := time.NewTicker(cfg.RoundEvery)
		defer tick.Stop()
		round := 0
		for {
			select {
			case <-roundDone:
				return
			case <-tick.C:
				round++
				at := t0.Add(time.Duration(round) * 20 * time.Minute)
				for i, id := range hosts {
					stores[id].Append(monitor.SensorLog, sensorLine(at, round, i))
				}
				start := time.Now()
				fc.Round(ctx, at)
				roundHist.Record(time.Since(start))
				queue.Offer(monitor.IngestJob{Round: round, Run: func() error {
					// The checkpoint collectord writes to disk, against
					// a sink: full serialisation cost, no tempdir.
					return samples.Store().WriteSegment(io.Discard)
				}})
				srv.InvalidateScrapeCache()
			}
		}
	}()

	// The open-loop generator: walk the precomputed schedule on the real
	// clock; a full feed buffer drops the arrival rather than stretching
	// the schedule.
	schedule := cfg.Schedule()
	start := time.Now()
	for _, a := range schedule {
		if err := ctx.Err(); err != nil {
			break
		}
		if wait := a.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		phases[a.Phase].arrivals.Add(1)
		select {
		case arrCh <- a:
		default:
			phases[a.Phase].dropped.Add(1)
		}
	}
	close(arrCh)
	scrapeWG.Wait()
	close(roundDone)
	roundWG.Wait()
	close(probeDone)
	probeWG.Wait()
	total := time.Since(start)

	fc.Close()
	queue.Close()

	// Leak check: give pooled-agent teardown a moment to settle, then
	// compare against the pre-run goroutine count.
	goroutinesAfter := settleGoroutines(goroutinesBefore, 2*time.Second)

	rep := &Report{
		Seed:        cfg.Seed,
		Agents:      cfg.Agents,
		Scrapers:    cfg.Scrapers,
		SustainRate: cfg.SustainRate,
		SpikeRate:   cfg.SustainRate * spikeMultiplier,
		TotalMs:     ms(total),
		MirrorBytes: int(coll.MirrorBytes()),
		Healthz:     HealthzReport{Probes: probes.Load(), Failures: probeFailures.Load()},
		Goroutines:  GoroutinesReport{Before: goroutinesBefore, After: goroutinesAfter},
	}
	for p := Warmup; p <= Spike; p++ {
		pc := &phases[p]
		h := &hists[p]
		pr := PhaseReport{
			Phase:     p.String(),
			Arrivals:  pc.arrivals.Load(),
			OK:        pc.ok.Load(),
			Rejected:  pc.rejected.Load(),
			Errors:    pc.errors.Load(),
			Dropped:   pc.dropped.Load(),
			CacheHits: pc.cacheHits.Load(),
			P50Ms:     ms(h.Quantile(0.50)),
			P90Ms:     ms(h.Quantile(0.90)),
			P99Ms:     ms(h.Quantile(0.99)),
			P999Ms:    ms(h.Quantile(0.999)),
			MaxMs:     ms(h.Max()),
			MeanMs:    ms(h.Mean()),
		}
		pr.Unaccounted = int64(pr.Arrivals) - int64(pr.OK) - int64(pr.Rejected) - int64(pr.Errors) - int64(pr.Dropped)
		dur := [NumPhases]time.Duration{cfg.Warmup, cfg.Ramp, cfg.Sustain, cfg.Spike}[p]
		if dur > 0 {
			pr.OfferedRate = float64(pr.Arrivals) / dur.Seconds()
		}
		rep.Phases = append(rep.Phases, pr)
	}
	for _, rr := range fc.Reports() {
		rep.RoundsPlane.Rounds++
		for _, h := range rr.Hosts {
			rep.RoundsPlane.HostRounds++
			switch h.Status {
			case monitor.StatusOK:
				rep.RoundsPlane.OK++
			case monitor.StatusFailed:
				rep.RoundsPlane.Failed++
			case monitor.StatusSkipped:
				rep.RoundsPlane.Skipped++
			}
		}
	}
	rep.RoundsPlane.Coverage = fc.Ledger().Coverage()
	rep.RoundsPlane.P50Ms = ms(roundHist.Quantile(0.50))
	rep.RoundsPlane.P99Ms = ms(roundHist.Quantile(0.99))
	rep.Pool = PoolReport{
		Dials:   metricValue(reg, "frostlab_fleet_dials_total"),
		Hits:    metricValue(reg, "frostlab_pool_hits_total"),
		Stale:   metricValue(reg, "frostlab_pool_stale_total"),
		Retired: metricValue(reg, "frostlab_pool_retired_total"),
		Idle:    fc.PooledSessions(),
	}
	st := queue.Stats()
	rep.Ingest = IngestReport{Offered: st.Offered, Shed: st.Shed, Done: st.Done, Failed: st.Failed, MaxDepth: st.MaxDepth}
	return rep, ctx.Err()
}

// sensorLine renders one deterministic agent sensor sample.
func sensorLine(at time.Time, round, host int) []byte {
	return []byte(fmt.Sprintf("%s cpu=%.1f disk0=%.1f\n",
		at.UTC().Format(time.RFC3339),
		-8.0+0.1*float64((round+host)%120),
		5.0+0.1*float64((round*7+host)%40)))
}

// settleGoroutines polls the goroutine count until it returns to around
// the pre-run level or the deadline passes, then reports the count. The
// pool's parked agent goroutines exit when Close byes them; that
// teardown is asynchronous, hence the settle loop.
func settleGoroutines(before int, within time.Duration) int {
	deadline := time.Now().Add(within)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= before+2 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
