package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"frostlab/internal/dash"
	"frostlab/internal/monitor"
	"frostlab/internal/rules"
	"frostlab/internal/simkernel"
	"frostlab/internal/telemetry"
	"frostlab/internal/tsdb"
)

// ops-serve: the collectord/dash plane in process. The read side is an
// open loop: a seeded Poisson schedule of dashboard reads is released on
// the real clock and served by nproc workers through Handler().ServeHTTP,
// and every request is timed from its due instant, so a stall delays the
// requests queued behind it and shows in their latency. The ladder doubles
// the offered rate from the nominal rate until a step misses the latency
// limit, fails a request, or leaves a backlog. The write side runs
// collection rounds on a fixed cadence throughout, as collectord does:
// FleetCollector.Round → IngestQueue → rules.Engine.Eval →
// InvalidateScrapeCache.

const (
	serveHosts = 32
	// serveHistory is the pre-filled history: four weeks of 20-minute
	// samples per host, so a windowed series query decodes real blocks.
	serveHistory = 28 * 24 * time.Hour
	// serveWindow is the span of one /api/series/{host}/{metric} query.
	serveWindow = 7 * 24 * time.Hour
	// serveRoundEvery is the wall-clock collection cadence; each round
	// advances the simulated clock by one 20-minute period.
	serveRoundEvery = 100 * time.Millisecond
	// serveNominalRate is the lowest ladder rate, at which op_p50_ms and
	// the serve.query_* figures are measured.
	serveNominalRate = 200.0
	// serveLadderSteps doubles the rate per step: 200 … 12800 requests/s.
	serveLadderSteps = 7
	// serveNominalShare is the share of the budget the nominal step gets;
	// the other steps split the rest.
	serveNominalShare = 0.4
	// serveLimit is the latency limit a sustainable step's p99 meets.
	serveLimit = 50 * time.Millisecond
	// serveDrain bounds how long a step's queued arrivals may still be
	// served after the step ends; later ones are dropped.
	serveDrain = time.Second
	// serveFeed is the arrival buffer between the generator and the
	// workers. 4096 arrivals is 0.3 s at the top rate, far past the
	// latency limit, so a full buffer only drops arrivals that would fail
	// the step anyway.
	serveFeed = 4096
	// servePlaneReps is how many planes an untraced phase brings up to
	// time set-up; the last one serves.
	servePlaneReps = 15
	// serveBodyChecks is how many series-window bodies the nominal step
	// keeps to compare with a direct tsdb rendering.
	serveBodyChecks = 8
	// serveCalibEvery is how often an untraced phase times one
	// calibration pass while the nominal step serves. Passes taken before
	// or after the step, however many, followed the host's load less
	// well than the step's own reads did.
	serveCalibEvery = 200 * time.Millisecond
)

// Routes of the read mix.
const (
	routeMetrics = iota
	routeSeriesList
	routeSeriesWindow
	routeAlerts
	routeRounds
)

// routeNames name the routes in metric names, indexed by route.
var routeNames = []string{"metrics", "series_list", "series_window", "alerts", "rounds"}

// routeMix is the read mix as cumulative shares, indexed by route. It is
// the scrape mix internal/loadgen documents for a monitoring host —
// /metrics 55%, /api/series 15%, one host's series 20%, /api/rounds 7%,
// the rest 3% — with that last 3% sent to /api/alerts, the route an
// operator's alert view polls, in place of the index page.
var routeMix = []float64{0.55, 0.70, 0.90, 0.93, 1.0}

// serveEpoch is the simulated instant collection starts at; the history
// pre-fill ends one period before it.
var serveEpoch = time.Date(2010, time.March, 26, 0, 0, 0, 0, time.UTC)

// plane is one brought-up serving plane.
type plane struct {
	hosts   []string
	stores  map[string]*monitor.FileStore
	walks   []*walk
	samples *monitor.SampleDB
	fc      *monitor.FleetCollector
	queue   *monitor.IngestQueue
	eng     *rules.Engine
	srv     *dash.Server
	handler http.Handler
	reg     *telemetry.Registry
	round   int
	reports []monitor.RoundReport
}

func hostName(i int) string { return fmt.Sprintf("host%03d", i+1) }

// walk is one host's seeded sensor random walk.
type walk struct {
	cpu, disk float64
	draw      func() float64
}

func (w *walk) next() (cpu, disk float64) {
	w.cpu = math.Max(-30, math.Min(60, w.cpu+(w.draw()-0.5)*2))
	w.disk = math.Max(-10, math.Min(45, w.disk+w.draw()-0.5))
	return w.cpu, w.disk
}

// appendSample renders one sensor line as the agents log it.
func appendSample(b []byte, at time.Time, cpu, disk float64) []byte {
	b = at.UTC().AppendFormat(b, time.RFC3339)
	b = append(b, " cpu="...)
	b = strconv.AppendFloat(b, cpu, 'f', 1, 64)
	b = append(b, " disk0="...)
	b = strconv.AppendFloat(b, disk, 'f', 1, 64)
	return append(b, '\n')
}

// newPlane brings up the plane: agents, history pre-fill, collector,
// ingest queue, rules engine and dashboard, then runs round 0 so serving
// starts with a warm pool. Close it with close.
func newPlane(seed string) (*plane, error) {
	rng := simkernel.NewRNG(seed + "/ops-serve")
	pl := &plane{stores: map[string]*monitor.FileStore{}, samples: monitor.NewSampleDB()}
	agents := map[string]*monitor.Agent{}
	keys := map[string][]byte{}
	var buf []byte
	for i := 0; i < serveHosts; i++ {
		id := hostName(i)
		r := rng.PCGStream("history/" + id)
		w := &walk{cpu: 10 + 20*r.Float64(), disk: 10 + 10*r.Float64(), draw: r.Float64}
		buf = buf[:0]
		for at := serveEpoch.Add(-serveHistory); at.Before(serveEpoch); at = at.Add(monitor.CollectionPeriod) {
			c, d := w.next()
			buf = appendSample(buf, at, c, d)
		}
		if pl.samples.Ingest(id, monitor.SensorLog, buf) == 0 {
			return nil, fmt.Errorf("ops-serve: history pre-fill stored no samples for %s", id)
		}
		store := monitor.NewFileStore()
		store.Append(monitor.MD5Log, []byte(serveEpoch.Format(time.RFC3339)+" OK d41d8cd98f00b204e9800998ecf8427e\n"))
		c, d := w.next()
		store.Append(monitor.SensorLog, appendSample(nil, serveEpoch, c, d))
		pl.hosts = append(pl.hosts, id)
		pl.walks = append(pl.walks, w)
		pl.stores[id] = store
		agents[id] = monitor.NewAgent(id, store)
		keys[id] = []byte("psk-" + seed + "-" + id)
	}
	coll := monitor.NewCollector(0).WithSamples(pl.samples)
	coll.SetRetention(64 << 10)
	fc, err := monitor.NewFleetCollector(coll, monitor.FleetConfig{
		Hosts:        pl.hosts,
		Dial:         monitor.InProcessDialer(agents, keys, seed),
		KeyFor:       func(id string) ([]byte, error) { return keys[id], nil },
		NonceFor:     monitor.InProcessNonces(seed),
		Retry:        monitor.RetryPolicy{MaxAttempts: 2, BaseBackoff: 10 * time.Millisecond, Multiplier: 2, JitterFrac: 0.5},
		Breaker:      monitor.BreakerConfig{Trip: 3, Cooldown: 3},
		PhaseTimeout: 2 * time.Second,
		RoundTimeout: 30 * time.Second,
		Jitter:       monitor.DeterministicJitter(seed),
		Concurrency:  runtime.GOMAXPROCS(0),
		Pool:         &monitor.PoolConfig{},
	})
	if err != nil {
		return nil, err
	}
	pl.fc = fc
	pl.queue = monitor.NewIngestQueue(4)
	pl.reg = telemetry.NewRegistry()
	fc.Instrument(pl.reg)
	pl.queue.Instrument(pl.reg)
	pl.eng = rules.NewEngine(rules.Default(), pl.samples.Store()).
		Live("coverage", func() float64 { return fc.Ledger().Coverage() }).
		Live("ingest_shed", func() float64 { return float64(pl.queue.Stats().Shed) }).
		Live("pool_stale", func() float64 { return float64(fc.PoolStaleTotal()) }).
		Live("breakers_open", func() float64 {
			open := 0
			for _, id := range pl.hosts {
				if fc.BreakerState(id) == monitor.BreakerOpen {
					open++
				}
			}
			return float64(open)
		})
	pl.eng.Instrument(pl.reg)
	pl.reg.GaugeFunc("frostlab_tsdb_samples", "Samples stored in the compressed sample store.",
		func() float64 { return float64(pl.samples.Store().Stats().Samples) })
	pl.srv = dash.NewServer(coll, pl.hosts, serveEpoch).
		WithLedger(fc.Ledger()).
		WithRules(pl.eng).
		WithAdmission(64, time.Second).
		WithScrapeCache(time.Second).
		WithTelemetry(pl.reg)
	pl.handler = pl.srv.Handler()
	pl.collect(nil, 0)
	return pl, nil
}

// close retires the pooled sessions and drains the ingest queue.
func (pl *plane) close() {
	pl.fc.Close()
	pl.queue.Close()
}

// collect runs one collection round as collectord does and returns its
// latency: round start to rules evaluated and scrape cache invalidated.
// It must not run concurrently with itself.
func (pl *plane) collect(tr *tracer, parent int) time.Duration {
	at := serveEpoch.Add(time.Duration(pl.round) * monitor.CollectionPeriod)
	if pl.round > 0 {
		var line []byte
		for i, id := range pl.hosts {
			c, d := pl.walks[i].next()
			line = appendSample(line[:0], at, c, d)
			pl.stores[id].Append(monitor.SensorLog, line)
		}
	}
	root := tr.begin("round", parent)
	start := time.Now()
	sp := tr.begin("monitor.FleetCollector.Round", root.id)
	rep := pl.fc.Round(context.Background(), at)
	tr.end(sp)
	pl.reports = append(pl.reports, rep)
	pl.queue.Offer(monitor.IngestJob{Round: pl.round, Run: func() error {
		// The checkpoint collectord writes, against a sink.
		s := tr.begin("tsdb.Store.WriteSegment", root.id)
		defer tr.end(s)
		return pl.samples.Store().WriteSegment(io.Discard)
	}})
	sp = tr.begin("rules.Engine.Eval", root.id)
	pl.eng.Eval(at)
	tr.end(sp)
	pl.srv.InvalidateScrapeCache()
	d := time.Since(start)
	tr.end(root)
	pl.round++
	return d
}

// arrival is one scheduled read.
type arrival struct {
	at    time.Duration // due offset from the step's start
	route int
	path  string
}

// schedule draws a step's Poisson arrivals and their routes from the seed.
func schedule(seed string, step int, rate float64, dur time.Duration, hosts []string) []arrival {
	r := simkernel.NewRNG(seed + "/ops-serve").PCGStream("arrivals/" + strconv.Itoa(step))
	windows := int((serveHistory - serveWindow) / monitor.CollectionPeriod)
	var out []arrival
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		u := r.Float64()
		route := 0
		for route < len(routeMix)-1 && u >= routeMix[route] {
			route++
		}
		a := arrival{at: t, route: route}
		switch route {
		case routeMetrics:
			a.path = "/metrics"
		case routeSeriesList:
			a.path = "/api/series"
		case routeSeriesWindow:
			from := serveEpoch.Add(-serveHistory).Add(time.Duration(r.IntN(windows)) * monitor.CollectionPeriod)
			metric := "cpu"
			if r.IntN(2) == 1 {
				metric = "disk0"
			}
			a.path = fmt.Sprintf("/api/series/%s/%s?from=%s&to=%s", hosts[r.IntN(len(hosts))], metric,
				from.Format(time.RFC3339), from.Add(serveWindow).Format(time.RFC3339))
		case routeAlerts:
			a.path = "/api/alerts"
		case routeRounds:
			a.path = "/api/rounds"
		}
		out = append(out, a)
	}
}

// stepConfig is one ladder step's load.
type stepConfig struct {
	rate     float64
	arrivals []arrival
	workers  int
	drain    time.Duration
	feed     int
	// keep is how many series-window bodies to keep for checking.
	keep int
	tr   *tracer
}

// stepResult is one step's accounting and timings.
type stepResult struct {
	rate                                  float64
	arrivals, ok, rejected, errors, drops int
	// latency holds successful requests' latencies from their due
	// instant; failed requests are only counted. windows holds the
	// series-window requests' among them, and windowCPU the CPU time
	// their serving threads spent in the handler.
	latency, windows, windowCPU []float64
	lateness                    []float64 // how late the generator released each arrival
	handler                     [][]float64
	backlog                     int // arrivals queued, not yet started, when the step ended
	bodies                      []keptBody
}

// keptBody is one response body kept for the rendering check.
type keptBody struct {
	path string
	body []byte
}

// sink is a ResponseWriter that counts the body, or keeps it when asked.
type sink struct {
	header http.Header
	code   int
	n      int
	keep   *bytes.Buffer
}

func (s *sink) Header() http.Header { return s.header }
func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}
func (s *sink) Write(b []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	s.n += len(b)
	if s.keep != nil {
		s.keep.Write(b)
	}
	return len(b), nil
}

// runStep releases the arrivals on the real clock and serves them with
// sc.workers goroutines through h. Arrivals that find the feed full are
// dropped at once; arrivals still queued sc.drain after the last release
// are dropped unserved.
func runStep(h http.Handler, sc stepConfig) *stepResult {
	res := &stepResult{rate: sc.rate, arrivals: len(sc.arrivals), handler: make([][]float64, len(routeNames))}
	feed := make(chan arrival, sc.feed)
	var cutoff atomic.Int64
	cutoff.Store(math.MaxInt64)
	var kept atomic.Int32
	results := make([]*stepResult, sc.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range results {
		local := &stepResult{handler: make([][]float64, len(routeNames))}
		results[w] = local
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Locked to its thread, a worker can read the CPU time its
			// requests took from the thread's own clock.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			ws := sc.tr.begin("worker", 0)
			defer sc.tr.end(ws)
			for a := range feed {
				if time.Now().UnixNano() > cutoff.Load() {
					local.drops++
					continue
				}
				req, err := http.NewRequest(http.MethodGet, a.path, nil)
				if err != nil {
					local.errors++
					continue
				}
				out := &sink{header: http.Header{}}
				if a.route == routeSeriesWindow && int(kept.Load()) < sc.keep {
					out.keep = &bytes.Buffer{}
				}
				sp := sc.tr.begin("dash "+routeNames[a.route], ws.id)
				c0, hs := threadCPU(), time.Now()
				h.ServeHTTP(out, req)
				end := time.Now()
				cpu := threadCPU() - c0
				sc.tr.end(sp)
				local.handler[a.route] = append(local.handler[a.route], end.Sub(hs).Seconds())
				switch {
				case out.code == http.StatusServiceUnavailable:
					local.rejected++
				case out.code >= 200 && out.code < 300:
					local.ok++
					lat := end.Sub(start.Add(a.at)).Seconds()
					local.latency = append(local.latency, lat)
					if a.route == routeSeriesWindow {
						local.windows = append(local.windows, lat)
						local.windowCPU = append(local.windowCPU, cpu.Seconds())
					}
					if out.keep != nil && kept.Add(1) <= int32(sc.keep) {
						local.bodies = append(local.bodies, keptBody{a.path, out.keep.Bytes()})
					}
				default:
					local.errors++
				}
			}
		}()
	}
	res.lateness = make([]float64, 0, len(sc.arrivals))
	for _, a := range sc.arrivals {
		due := start.Add(a.at)
		waitUntil(due)
		res.lateness = append(res.lateness, time.Since(due).Seconds())
		select {
		case feed <- a:
		default:
			res.drops++
		}
	}
	res.backlog = len(feed)
	cutoff.Store(time.Now().Add(sc.drain).UnixNano())
	close(feed)
	wg.Wait()
	for _, l := range results {
		res.ok += l.ok
		res.rejected += l.rejected
		res.errors += l.errors
		res.drops += l.drops
		res.windowCPU = append(res.windowCPU, l.windowCPU...)
		res.latency = append(res.latency, l.latency...)
		res.windows = append(res.windows, l.windows...)
		res.bodies = append(res.bodies, l.bodies...)
		for i := range res.handler {
			res.handler[i] = append(res.handler[i], l.handler[i]...)
		}
	}
	return res
}

// timerSlack is how early waitUntil stops sleeping: the runtime's timers
// can wake up to a millisecond late, which would show as latency.
const timerSlack = 1500 * time.Microsecond

// waitUntil returns at t: it sleeps until shortly before, then yields
// the processor in a loop, so runnable workers still get it.
func waitUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// failed counts requests that were refused, errored or dropped.
func (s *stepResult) failed() int { return s.rejected + s.errors + s.drops }

// unaccounted is arrivals − (ok + rejected + errors + dropped); 0 when
// every arrival is accounted for.
func (s *stepResult) unaccounted() int { return s.arrivals - s.ok - s.rejected - s.errors - s.drops }

// quantile returns the q-quantile latency in seconds, counting refused,
// errored and dropped requests as missing every limit.
func (s *stepResult) quantile(q float64) float64 {
	lat := append(make([]float64, 0, len(s.latency)+s.failed()), s.latency...)
	for i := 0; i < s.failed(); i++ {
		lat = append(lat, math.Inf(1))
	}
	return quantile(lat, q)
}

// sustainable reports whether the step met the limit: p99 within it, no
// failed request, and no backlog beyond what the limit allows.
func (s *stepResult) sustainable(limit time.Duration) bool {
	return s.arrivals > 0 && s.failed() == 0 && s.quantile(0.99) <= limit.Seconds() &&
		float64(s.backlog) <= math.Max(1, s.rate*limit.Seconds())
}

// maxSustainable returns the rate of the last step in the unbroken run
// of sustainable steps from the bottom of the ladder, 0 if the first
// step already fails.
func maxSustainable(steps []*stepResult, limit time.Duration) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.sustainable(limit) {
			break
		}
		best = s.rate
	}
	return best
}

// renderWindow renders a series-window request straight from the store,
// through the encoder settings the dashboard's JSON responses use.
func renderWindow(store *tsdb.Store, path string) ([]byte, error) {
	u, err := url.Parse(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimPrefix(u.Path, "/api/series/")
	from, err := time.Parse(time.RFC3339, u.Query().Get("from"))
	if err != nil {
		return nil, err
	}
	to, err := time.Parse(time.RFC3339, u.Query().Get("to"))
	if err != nil {
		return nil, err
	}
	it, err := store.Query(name, from.UnixNano(), to.UnixNano())
	if err != nil {
		return nil, err
	}
	win := dash.SeriesWindow{Series: name, Points: []dash.SeriesPoint{}}
	for it.Next() {
		t, v := it.At()
		win.Points = append(win.Points, dash.SeriesPoint{At: time.Unix(0, t).UTC(), Value: v})
	}
	if it.Err() != nil {
		return nil, it.Err()
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", " ")
	if err := enc.Encode(win); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// opsServe brings up the plane, runs the ladder with collection rounds
// and a liveness prober alongside, and checks the plane's accounting.
func opsServe(p *phase) error {
	reps := 1
	if !p.traced() {
		reps = servePlaneReps
	}
	var pl *plane
	for i := 0; i < reps; i++ {
		if pl != nil {
			pl.close()
		}
		runtime.GC()
		t := time.Now()
		np, err := newPlane(p.seed)
		if err != nil {
			return err
		}
		if !p.traced() {
			p.setup = append(p.setup, time.Since(t).Seconds())
			p.calibrate(1)
		}
		pl = np
	}

	if !p.traced() {
		settle()
	}
	// Closing stop ends both background loops between iterations, so a
	// round is never cut off mid-collection.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	// Collection rounds on a fixed cadence, tagged with the ladder step
	// they started in.
	var stepNow atomic.Int32
	var roundMs [serveLadderSteps][]float64
	bg.Add(1)
	go func() {
		defer bg.Done()
		rs := p.tr.begin("rounds", 0)
		defer p.tr.end(rs)
		tick := time.NewTicker(serveRoundEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				k := stepNow.Load()
				d := pl.collect(p.tr, rs.id)
				roundMs[k] = append(roundMs[k], d.Seconds()*1e3)
			}
		}
	}()
	// Liveness: /healthz must answer 200 throughout. The probes are
	// labelled as check work, so they stay out of the profiled layers.
	var probes, probeFails int
	bg.Add(1)
	unprofiled(func() {
		go func() {
			defer bg.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					req, _ := http.NewRequest(http.MethodGet, "/healthz", nil)
					out := &sink{header: http.Header{}}
					pl.handler.ServeHTTP(out, req)
					probes++
					if out.code != http.StatusOK {
						probeFails++
					}
				}
			}
		}()
	})

	workers := runtime.GOMAXPROCS(0)
	nominalDur := time.Duration(float64(p.budget) * serveNominalShare)
	stepDur := (p.budget - nominalDur) / (serveLadderSteps - 1)
	p.mem.start()
	m0, f0 := readMem(), pageFaults()
	var steps []*stepResult
	for k := 0; k < serveLadderSteps; k++ {
		rate := serveNominalRate * math.Pow(2, float64(k))
		dur := stepDur
		keep := 0
		if k == 0 {
			dur, keep = nominalDur, serveBodyChecks
		}
		arr := schedule(p.seed, k, rate, dur, pl.hosts)
		stepNow.Store(int32(k))
		var cal *calSampler
		if k == 0 && !p.traced() {
			cal = p.startCalibration(serveCalibEvery)
		}
		sp := p.tr.begin(fmt.Sprintf("ladder step %.0f/s", rate), 0)
		res := runStep(pl.handler, stepConfig{rate: rate, arrivals: arr, workers: workers,
			drain: serveDrain, feed: serveFeed, keep: keep, tr: p.tr})
		p.tr.end(sp)
		cal.stop()
		if k == 0 {
			p.peaks = append(p.peaks, p.mem.stop())
			alloc, _, _ := m0.since()
			p.alloc = append(p.alloc, alloc)
		}
		steps = append(steps, res)
		if !res.sustainable(serveLimit) {
			break
		}
	}
	_, gcCycles, gcPause := m0.since()
	p.faults = append(p.faults, pageFaults()-f0)
	close(stop)
	bg.Wait()
	pl.close()

	nominal := steps[0]
	// The operation is one windowed series query: the read that decodes
	// tsdb blocks. Most of the mix is scrape-cache hits, whose latency
	// is the generator's hand-off to a worker rather than the plane's.
	p.ops = append(p.ops, nominal.windows...)
	p.cpu = append(p.cpu, nominal.windowCPU...)
	p.units = 1
	p.attempted += nominal.arrivals
	p.failed += nominal.failed()
	for _, s := range steps {
		p.check("arrivals = ok + rejected + errors + dropped", s.unaccounted() == 0,
			fmt.Sprintf("%.0f/s: %d arrivals, %d ok, %d rejected, %d errors, %d dropped",
				s.rate, s.arrivals, s.ok, s.rejected, s.errors, s.drops))
	}
	ist := pl.queue.Stats()
	p.check("ingest offered = done + shed + failed", ist.Offered == ist.Done+ist.Shed+ist.Failed && ist.Depth == 0,
		fmt.Sprintf("%+v", ist))
	p.check("ingest jobs failed = 0", ist.Failed == 0, fmt.Sprintf("%d failed", ist.Failed))
	p.check("/healthz 200 throughout", probes > 0 && probeFails == 0, fmt.Sprintf("%d of %d probes failed", probeFails, probes))
	p.check("every round collected every host", pl.fc.Ledger().Coverage() == 1,
		fmt.Sprintf("coverage %.4f", pl.fc.Ledger().Coverage()))
	p.check("series-window bodies kept", len(nominal.bodies) > 0, "none kept")
	for _, b := range nominal.bodies {
		want, err := renderWindow(pl.samples.Store(), b.path)
		p.check("series-window body = direct tsdb rendering", err == nil && bytes.Equal(b.body, want),
			fmt.Sprintf("%s: %d bytes served, %d rendered (%v)", b.path, len(b.body), len(want), err))
	}

	maxRate := maxSustainable(steps, serveLimit)
	var lateness []float64
	for _, s := range steps {
		p.note("ladder %6.0f/s: %5d arrivals, p50 %7.3f ms, p99 %8.3f ms, %d ok, %d rejected, %d errors, %d dropped, backlog %d, lateness p50 %.3f p99 %.3f ms, sustainable %v",
			s.rate, s.arrivals, s.quantile(0.5)*1e3, s.quantile(0.99)*1e3, s.ok, s.rejected, s.errors, s.drops, s.backlog,
			quantile(s.lateness, 0.5)*1e3, quantile(s.lateness, 0.99)*1e3, s.sustainable(serveLimit))
		lateness = append(lateness, s.lateness...)
	}
	p.note("serve: query p50 %.3f ms, p99 %.3f ms over %d samples at %.0f/s; max sustainable %.0f/s; round p99 %.2f ms; %d rounds",
		nominal.quantile(0.5)*1e3, nominal.quantile(0.99)*1e3, nominal.arrivals, nominal.rate, maxRate,
		quantile(roundMs[0], 0.99), pl.round)

	l := p.layers
	if !p.traced() {
		l["serve.query_p50_ms"] = nominal.quantile(0.5) * 1e3
		l["serve.query_p99_ms"] = nominal.quantile(0.99) * 1e3
		l["serve.query_samples"] = float64(nominal.arrivals)
		l["serve.max_rate_rps"] = maxRate
		l["serve.round_p99_ms"] = quantile(roundMs[0], 0.99)
		l["serve.error_rate"] = ratio(float64(nominal.failed()), float64(nominal.arrivals))
		return nil
	}
	for i, r := range routeNames {
		l["dash."+r+"_ms_p50"] = quantile(nominal.handler[i], 0.5) * 1e3
		l["dash."+r+"_ms_p99"] = quantile(nominal.handler[i], 0.99) * 1e3
	}
	vals := registryValues(pl.reg)
	l["dash.cache_hit_ratio"] = ratio(vals["frostlab_dash_cache_hits_total"],
		vals["frostlab_dash_cache_hits_total"]+vals["frostlab_dash_cache_misses_total"])
	l["dash.rejected"] = vals["frostlab_dash_rejected_total"]
	l["monitor.pool_hit_ratio"] = ratio(vals["frostlab_pool_hits_total"],
		vals["frostlab_pool_hits_total"]+vals["frostlab_fleet_dials_total"])
	l["monitor.ingest_shed_ratio"] = ratio(float64(ist.Shed), float64(ist.Offered))
	var rounds []float64
	for _, rs := range roundMs {
		rounds = append(rounds, rs...)
	}
	l["monitor.round_ms_p50"], l["monitor.round_ms_p99"] = quantile(rounds, 0.5), quantile(rounds, 0.99)
	evals := p.tr.durations("rules.Engine.Eval")
	l["rules.eval_us_p50"], l["rules.eval_us_p99"] = quantile(evals, 0.5)*1e6, quantile(evals, 0.99)*1e6
	l["tsdb.ingest_us_p50"] = quantile(p.tr.durations("tsdb.Store.WriteSegment"), 0.5) * 1e6
	var collected, scanned, literal float64
	for _, rep := range pl.reports {
		for _, h := range rep.Hosts {
			if h.Status == monitor.StatusOK {
				collected++
			}
			scanned += float64(h.TotalBytes)
			literal += float64(h.LiteralBytes)
		}
	}
	l["monitor.rounds"], l["monitor.host_collections"] = float64(len(pl.reports)), collected
	l["delta.bytes_scanned"], l["delta.literal_ratio"] = scanned, ratio(literal, scanned)
	st := pl.samples.Store().Stats()
	l["tsdb.samples"], l["tsdb.bits_per_sample"] = float64(st.Samples), ratio(8*float64(st.CompressedBytes), float64(st.Samples))
	rst := pl.eng.Stats()
	l["rules.evals"], l["rules.incidents"] = float64(rst.Evals), float64(rst.IncidentsTotal)
	l["loadgen.lateness_ms_p99"] = quantile(lateness, 0.99) * 1e3
	l["runtime.gc_cycles"], l["runtime.gc_pause_ms"] = gcCycles, gcPause
	return nil
}
