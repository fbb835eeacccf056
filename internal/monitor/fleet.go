package monitor

import (
	"context"
	"crypto/rand"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"frostlab/internal/telemetry"
	"frostlab/internal/wire"
)

// DialFunc opens a transport to one host for one collection attempt.
// Round and attempt are 1-based; they exist so deterministic dialers (and
// the chaos injector wrapping them) can key their behaviour to the exact
// attempt being made.
type DialFunc func(ctx context.Context, hostID string, round, attempt int) (net.Conn, error)

// FleetConfig configures a FleetCollector.
type FleetConfig struct {
	// Hosts is the fleet roster. It is copied and sorted at construction;
	// reports list hosts in sorted order.
	Hosts []string
	// Dial opens the transport to a host.
	Dial DialFunc
	// KeyFor resolves a host's pre-shared key.
	KeyFor func(hostID string) ([]byte, error)
	// NonceFor supplies the collector-side handshake nonce for an attempt.
	// nil uses crypto/rand (production); deterministic runs pass
	// wire.CounterNonce-backed nonces keyed to (host, round, attempt).
	NonceFor func(hostID string, round, attempt int) wire.Nonce

	// Retry bounds per-host attempts within a round.
	Retry RetryPolicy
	// Breaker configures the per-host circuit breakers.
	Breaker BreakerConfig

	// PhaseTimeout is the per-read/-write deadline set on the connection
	// before every I/O operation, so one stalled agent can never wedge a
	// round (the §4.2.1 failure the seed collector had). 0 disables.
	PhaseTimeout time.Duration
	// RoundTimeout bounds one whole round; when it expires, in-flight
	// connections are torn down and remaining attempts abandoned. 0
	// disables.
	RoundTimeout time.Duration

	// Jitter supplies the backoff jitter draw in [0,1) for an attempt.
	// nil uses DeterministicJitter("").
	Jitter func(hostID string, round, attempt int) float64
	// Sleep pauses between attempts. nil sleeps on the real clock,
	// honouring ctx; deterministic tests inject a recorder that returns
	// immediately.
	Sleep func(ctx context.Context, d time.Duration) error

	// Concurrency caps hosts collected in parallel (0 = all at once).
	// The cap also bounds the round's goroutine fan-out: a round spawns
	// min(Concurrency, len(Hosts)) workers, not one goroutine per host,
	// so a 100k-host fleet with Concurrency 64 costs 64 goroutines.
	Concurrency int

	// Pool, when non-nil, enables cross-round connection reuse: sessions
	// that complete a round are parked and health-checked (ftPing) before
	// the next one, replacing dial-per-attempt. See PoolConfig.
	Pool *PoolConfig

	// Tracer, when non-nil, records collection-plane spans with wall-clock
	// timestamps: one "round" span on track 0 and one "collect <host>" span
	// per host-round on that host's track. The tracer is concurrency-safe,
	// so parallel host goroutines emit directly.
	Tracer *telemetry.Tracer
}

// FleetCollector drives collection rounds across a fleet with bounded
// retries, per-host circuit breakers, deadlines, and gap accounting. It
// wraps a Collector (which owns the mirrors and transfer statistics) and
// adds the reliability layer the paper's monitoring host lacked.
//
// Round must not be called concurrently with itself; within a round, hosts
// are collected in parallel.
type FleetCollector struct {
	cfg      FleetConfig
	coll     *Collector
	breakers map[string]*Breaker
	ledger   *GapLedger
	tids     map[string]int // tracer track per host; 0 is the fleet track
	pool     *connPool      // nil unless cfg.Pool is set

	// met is nil until Instrument attaches a registry; see metrics.go.
	met *fleetMetrics

	// staleConns counts parked connections found dead on pickup. Unlike
	// the telemetry mirror it is always on, so the rules engine can
	// watch pool churn even without an instrumented registry.
	staleConns atomic.Uint64

	mu      sync.Mutex
	reports []RoundReport
	round   int
}

// PoolStaleTotal reports how many pooled connections were found dead
// when picked up for a round.
func (fc *FleetCollector) PoolStaleTotal() uint64 { return fc.staleConns.Load() }

// NewFleetCollector validates the configuration and returns a collector
// with closed breakers and an empty gap ledger.
func NewFleetCollector(coll *Collector, cfg FleetConfig) (*FleetCollector, error) {
	if coll == nil {
		return nil, fmt.Errorf("monitor: nil Collector")
	}
	if len(cfg.Hosts) == 0 {
		return nil, fmt.Errorf("monitor: fleet has no hosts")
	}
	if cfg.Dial == nil {
		return nil, fmt.Errorf("monitor: FleetConfig.Dial is required")
	}
	if cfg.KeyFor == nil {
		return nil, fmt.Errorf("monitor: FleetConfig.KeyFor is required")
	}
	if cfg.Retry.MaxAttempts < 1 {
		return nil, fmt.Errorf("monitor: Retry.MaxAttempts must be at least 1, got %d", cfg.Retry.MaxAttempts)
	}
	cfg.Hosts = append([]string(nil), cfg.Hosts...)
	sort.Strings(cfg.Hosts)
	if cfg.Jitter == nil {
		cfg.Jitter = DeterministicJitter("")
	}
	if cfg.Sleep == nil {
		cfg.Sleep = SleepContext
	}
	fc := &FleetCollector{
		cfg:      cfg,
		coll:     coll,
		breakers: make(map[string]*Breaker, len(cfg.Hosts)),
		ledger:   NewGapLedger(),
		tids:     make(map[string]int, len(cfg.Hosts)),
	}
	if cfg.Pool != nil {
		fc.pool = newConnPool()
	}
	for i, h := range cfg.Hosts {
		fc.breakers[h] = NewBreaker(cfg.Breaker)
		fc.tids[h] = i + 1
	}
	if cfg.Tracer != nil {
		cfg.Tracer.SetThreadName(0, "fleet")
		for _, h := range cfg.Hosts {
			cfg.Tracer.SetThreadName(fc.tids[h], "host "+h)
		}
	}
	return fc, nil
}

// Ledger returns the gap ledger.
func (fc *FleetCollector) Ledger() *GapLedger { return fc.ledger }

// Reports returns all completed round reports.
func (fc *FleetCollector) Reports() []RoundReport {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	out := make([]RoundReport, len(fc.reports))
	copy(out, fc.reports)
	return out
}

// BreakerState reports one host's breaker position.
func (fc *FleetCollector) BreakerState(hostID string) BreakerState {
	if b, ok := fc.breakers[hostID]; ok {
		return b.State()
	}
	return BreakerClosed
}

// Round runs one collection round over the whole fleet and returns its
// report. Hosts proceed in parallel; each host's outcome is independent of
// the others, so reports are deterministic under deterministic dialers
// regardless of goroutine interleaving.
func (fc *FleetCollector) Round(ctx context.Context, now time.Time) RoundReport {
	fc.round++
	round := fc.round
	var wallStart time.Time
	if fc.met != nil || fc.cfg.Tracer != nil {
		// The wall clock is only read when someone is watching, so
		// uninstrumented deterministic runs stay byte-identical.
		wallStart = time.Now()
	}
	if fc.cfg.RoundTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, fc.cfg.RoundTimeout)
		defer cancel()
	}
	conc := fc.cfg.Concurrency
	if conc <= 0 || conc > len(fc.cfg.Hosts) {
		conc = len(fc.cfg.Hosts)
	}
	// Bounded fan-out: conc workers pull host indexes from a channel, so
	// the round's goroutine count is the concurrency cap, not the fleet
	// size. Outcomes land in fleet order regardless of which worker runs
	// which host, so reports stay deterministic under deterministic
	// dialers exactly as before.
	outcomes := make([]HostOutcome, len(fc.cfg.Hosts))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outcomes[i] = fc.collectHost(ctx, fc.cfg.Hosts[i], round, now)
			}
		}()
	}
	for i := range fc.cfg.Hosts {
		idx <- i
	}
	close(idx)
	wg.Wait()
	rep := RoundReport{Round: round, At: now, Hosts: outcomes}
	fc.ledger.Record(rep)
	if fc.met != nil || fc.cfg.Tracer != nil {
		wallDur := time.Since(wallStart)
		fc.observeRound(rep, wallDur)
		if tr := fc.cfg.Tracer; tr != nil {
			tr.Span("round", "collect", 0, wallStart, wallDur)
			tr.Counter("fleet_coverage", wallStart.Add(wallDur), fc.ledger.Coverage())
		}
	}
	fc.mu.Lock()
	fc.reports = append(fc.reports, rep)
	fc.mu.Unlock()
	return rep
}

// collectHost runs one host's round: breaker gate, then up to MaxAttempts
// tries with backoff between them.
func (fc *FleetCollector) collectHost(ctx context.Context, hostID string, round int, now time.Time) HostOutcome {
	out := HostOutcome{HostID: hostID}
	br := fc.breakers[hostID]
	if tr := fc.cfg.Tracer; tr != nil {
		start := time.Now()
		defer func() {
			tr.Span("collect "+hostID, "host", fc.tids[hostID], start, time.Since(start))
		}()
	}
	// Publish the breaker's position after the round settles, so the
	// closed→open→half-open→closed walk of a flapping host is visible
	// across scrapes.
	defer func() { fc.observeBreaker(hostID, br.State()) }()
	allow, probe := br.Gate()
	if !allow {
		out.Status = StatusSkipped
		out.Err = "breaker open"
		out.Breaker = br.State().String()
		return out
	}
	maxAttempts := fc.cfg.Retry.MaxAttempts
	if probe {
		maxAttempts = 1
	}
	var lastErr error
	attempts := 0
	for a := 1; a <= maxAttempts; a++ {
		if a > 1 {
			// The backoff wait is context-aware: a round deadline or a
			// shutdown signal interrupts the pause instead of running it
			// out. The jitter draw happens unconditionally so chaos
			// replays keep their deterministic draw sequence.
			if err := fc.cfg.Retry.WaitContext(ctx, a-1, fc.cfg.Jitter(hostID, round, a), fc.cfg.Sleep); err != nil {
				lastErr = err
				break
			}
		}
		attempts = a
		stats, err := fc.attempt(ctx, hostID, round, a, now)
		if err == nil {
			br.OnSuccess()
			out.Status = StatusOK
			out.Attempts = a
			out.Breaker = br.State().String()
			out.Files = stats.Files
			out.LiteralBytes = stats.LiteralBytes
			out.TotalBytes = stats.TotalBytes
			return out
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	br.OnFailure()
	out.Status = StatusFailed
	out.Attempts = attempts
	if lastErr != nil {
		out.Err = lastErr.Error()
	}
	out.Breaker = br.State().String()
	return out
}

// attempt performs one collect try against a host: a pooled keepalive
// session when one is parked and healthy, a fresh dial-handshake
// otherwise. On success with a pool, the session is parked for the next
// round; on any failure (or without a pool) the transport is torn down.
func (fc *FleetCollector) attempt(ctx context.Context, hostID string, round, attempt int, now time.Time) (RoundStats, error) {
	if err := ctx.Err(); err != nil {
		return RoundStats{}, err
	}
	pc, err := fc.session(ctx, hostID, round, attempt)
	if err != nil {
		return RoundStats{}, err
	}

	// Watchdog: context cancellation (round timeout, shutdown signal)
	// closes the connection, unblocking any in-flight read or write.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			pc.conn.Close()
		case <-stop:
		}
	}()
	stopWatchdog := func() { close(stop); <-done }

	var stats RoundStats
	if fc.pool != nil {
		stats, err = fc.coll.CollectHostKeepAlive(ctx, pc.sess, hostID, now)
	} else {
		stats, err = fc.coll.CollectHostContext(ctx, pc.sess, hostID, now)
	}
	stopWatchdog()
	if err != nil {
		pc.conn.Close()
		return stats, fmt.Errorf("collect: %w", err)
	}
	if fc.pool != nil {
		// The watchdog is stopped before parking, so a later round (or
		// the pool itself) owns the teardown from here on.
		fc.pool.put(hostID, pc)
	} else {
		pc.conn.Close()
	}
	return stats, nil
}

// session produces the attempt's authenticated session. With a pool, a
// parked session is health-checked first — an injected pool fault severs
// it before the ping, so the check fails and the attempt falls through to
// a fresh dial. A stale keepalive therefore costs one ping round-trip,
// never a failed attempt.
func (fc *FleetCollector) session(ctx context.Context, hostID string, round, attempt int) (*pooledConn, error) {
	if fc.pool != nil {
		if pc := fc.pool.get(hostID); pc != nil {
			if fc.cfg.Pool.Fault != nil && fc.cfg.Pool.Fault(hostID, round) {
				// The parked transport died while idle (agent restart,
				// injected chaos): sever it so the health check sees a
				// dead conn, exactly as production would.
				pc.conn.Close()
				fc.staleConns.Add(1)
				fc.countPoolStale(hostID)
			}
			if err := ping(pc.sess); err == nil {
				fc.countPoolHit(hostID)
				return pc, nil
			}
			pc.conn.Close()
			fc.countPoolRetired(hostID)
		}
	}
	conn, err := fc.cfg.Dial(ctx, hostID, round, attempt)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	rw := &phaseConn{Conn: conn, timeout: fc.cfg.PhaseTimeout}
	psk, err := fc.cfg.KeyFor(hostID)
	if err != nil {
		conn.Close()
		return nil, err
	}
	nonce := wire.Nonce(randNonce)
	if fc.cfg.NonceFor != nil {
		nonce = fc.cfg.NonceFor(hostID, round, attempt)
	}
	sess, err := wire.Dial(rw, hostID, psk, nonce)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	fc.countDial(hostID)
	return &pooledConn{conn: conn, sess: sess}, nil
}

// Close retires every pooled keepalive session with a clean bye. It is
// the shutdown counterpart of FleetConfig.Pool and a no-op without one;
// Round must not be running concurrently.
func (fc *FleetCollector) Close() {
	if fc.pool != nil {
		fc.pool.close()
	}
}

// PooledSessions reports the idle keepalive sessions currently parked
// (0 without a pool).
func (fc *FleetCollector) PooledSessions() int {
	if fc.pool == nil {
		return 0
	}
	return fc.pool.size()
}

// phaseConn arms a fresh deadline before every read and write, so each
// protocol phase — not just the dial — is individually bounded. This is
// the fix for the seed collector's unbounded-stall hang.
type phaseConn struct {
	net.Conn
	timeout time.Duration
}

func (p *phaseConn) Read(b []byte) (int, error) {
	if p.timeout > 0 {
		if err := p.Conn.SetReadDeadline(time.Now().Add(p.timeout)); err != nil {
			return 0, err
		}
	}
	return p.Conn.Read(b)
}

func (p *phaseConn) Write(b []byte) (int, error) {
	if p.timeout > 0 {
		if err := p.Conn.SetWriteDeadline(time.Now().Add(p.timeout)); err != nil {
			return 0, err
		}
	}
	return p.Conn.Write(b)
}

// randNonce is the production crypto/rand-backed wire.Nonce.
func randNonce() ([]byte, error) {
	b := make([]byte, wire.NonceSize)
	_, err := rand.Read(b)
	return b, err
}

// InProcessDialer serves dials from in-memory agents over net.Pipe: the
// exact protocol path cmd/collectord runs over TCP, with one agent
// goroutine per connection and handshake nonces derived deterministically
// from nonceSeed and the (host, round, attempt) being dialled. The chaos
// injector wraps this dialer to run monitoring-outage studies in-process.
func InProcessDialer(agents map[string]*Agent, keys wire.Keystore, nonceSeed string) DialFunc {
	return func(ctx context.Context, hostID string, round, attempt int) (net.Conn, error) {
		agent, ok := agents[hostID]
		if !ok {
			return nil, fmt.Errorf("monitor: no in-process agent %q", hostID)
		}
		a, c := net.Pipe()
		go func() {
			defer a.Close()
			label := fmt.Sprintf("%s/%s/r%d/a%d/agent", nonceSeed, hostID, round, attempt)
			sess, err := wire.Accept(a, keys, wire.CounterNonce(label))
			if err != nil {
				return
			}
			_ = agent.Serve(sess)
		}()
		return c, nil
	}
}

// InProcessNonces is the collector-side counterpart of InProcessDialer's
// agent nonces: deterministic per-attempt handshake nonces for replayable
// chaos runs.
func InProcessNonces(nonceSeed string) func(hostID string, round, attempt int) wire.Nonce {
	return func(hostID string, round, attempt int) wire.Nonce {
		return wire.CounterNonce(fmt.Sprintf("%s/%s/r%d/a%d/coll", nonceSeed, hostID, round, attempt))
	}
}
