package monitor

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"frostlab/internal/wire"
)

var fleetT0 = time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)

// testFleet builds agents with a little log content and the matching
// FleetConfig pieces, all deterministic.
func testFleet(t *testing.T, ids []string) (map[string]*Agent, wire.Keystore) {
	t.Helper()
	agents := make(map[string]*Agent, len(ids))
	keys := make(wire.Keystore, len(ids))
	for _, id := range ids {
		store := NewFileStore()
		store.Append(MD5Log, []byte("2010-02-19T12:10:00Z OK d41d8cd98f00b204e9800998ecf8427e\n"))
		store.Append(SensorLog, []byte("2010-02-19T12:10:00Z cpu=-4.1\n"))
		agents[id] = NewAgent(id, store)
		keys[id] = []byte("psk-" + id)
	}
	return agents, keys
}

// fakeSleeper records backoff pauses without sleeping.
type fakeSleeper struct {
	mu     sync.Mutex
	pauses []time.Duration
}

func (fs *fakeSleeper) sleep(ctx context.Context, d time.Duration) error {
	fs.mu.Lock()
	fs.pauses = append(fs.pauses, d)
	fs.mu.Unlock()
	return ctx.Err()
}

func testConfig(ids []string, agents map[string]*Agent, keys wire.Keystore, sleep *fakeSleeper) FleetConfig {
	return FleetConfig{
		Hosts:        ids,
		Dial:         InProcessDialer(agents, keys, "fleet-test"),
		KeyFor:       func(id string) ([]byte, error) { return keys[id], nil },
		NonceFor:     InProcessNonces("fleet-test"),
		Retry:        RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second, Multiplier: 2},
		Breaker:      BreakerConfig{Trip: 2, Cooldown: 2},
		PhaseTimeout: 2 * time.Second,
		RoundTimeout: 10 * time.Second,
		Jitter:       DeterministicJitter("fleet-test"),
		Sleep:        sleep.sleep,
	}
}

func TestFleetHealthyRound(t *testing.T) {
	ids := []string{"02", "01", "03"}
	agents, keys := testFleet(t, ids)
	sleep := &fakeSleeper{}
	fc, err := NewFleetCollector(NewCollector(0), testConfig(ids, agents, keys, sleep))
	if err != nil {
		t.Fatal(err)
	}
	rep := fc.Round(context.Background(), fleetT0)
	if rep.Round != 1 || len(rep.Hosts) != 3 {
		t.Fatalf("report = %+v", rep)
	}
	// Hosts come back sorted regardless of config order.
	for i, want := range []string{"01", "02", "03"} {
		h := rep.Hosts[i]
		if h.HostID != want || h.Status != StatusOK || h.Attempts != 1 || h.Files != 2 {
			t.Errorf("host %d = %+v, want %s ok on first attempt with 2 files", i, h, want)
		}
	}
	if rep.Coverage() != 1 {
		t.Errorf("coverage = %v", rep.Coverage())
	}
	if len(sleep.pauses) != 0 {
		t.Errorf("healthy round slept: %v", sleep.pauses)
	}
	// The mirrors actually hold the content.
	if got := fc.coll.Mirror("02").Size(MD5Log); got == 0 {
		t.Error("mirror empty after collection")
	}
}

// failingDialer fails every dial to the listed hosts.
func failingDialer(next DialFunc, down map[string]bool) DialFunc {
	return func(ctx context.Context, hostID string, round, attempt int) (net.Conn, error) {
		if down[hostID] {
			return nil, fmt.Errorf("connection refused (test)")
		}
		return next(ctx, hostID, round, attempt)
	}
}

func TestFleetRetriesThenBreaker(t *testing.T) {
	ids := []string{"01", "02"}
	agents, keys := testFleet(t, ids)
	sleep := &fakeSleeper{}
	cfg := testConfig(ids, agents, keys, sleep)
	cfg.Dial = failingDialer(cfg.Dial, map[string]bool{"02": true})
	fc, err := NewFleetCollector(NewCollector(0), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Rounds 1-2: host 02 fails all three attempts, breaker trips after 2.
	for round := 1; round <= 2; round++ {
		rep := fc.Round(context.Background(), fleetT0)
		h := rep.Hosts[1]
		if h.Status != StatusFailed || h.Attempts != 3 {
			t.Fatalf("round %d host 02 = %+v", round, h)
		}
		if !strings.Contains(h.Err, "connection refused") {
			t.Fatalf("round %d error = %q", round, h.Err)
		}
	}
	if fc.BreakerState("02") != BreakerOpen {
		t.Fatalf("breaker after 2 failed rounds = %v", fc.BreakerState("02"))
	}
	// Rounds 3-4: cooldown, skipped without dialling (no new pauses).
	before := len(sleep.pauses)
	for round := 3; round <= 4; round++ {
		rep := fc.Round(context.Background(), fleetT0)
		if h := rep.Hosts[1]; h.Status != StatusSkipped || h.Attempts != 0 {
			t.Fatalf("round %d host 02 = %+v, want skipped", round, h)
		}
	}
	if len(sleep.pauses) != before {
		t.Error("skipped rounds still backed off")
	}
	// Round 5: half-open probe — exactly one attempt.
	rep := fc.Round(context.Background(), fleetT0)
	if h := rep.Hosts[1]; h.Status != StatusFailed || h.Attempts != 1 {
		t.Fatalf("probe round host 02 = %+v, want 1 failed attempt", h)
	}
	if fc.BreakerState("02") != BreakerOpen {
		t.Fatalf("breaker after failed probe = %v", fc.BreakerState("02"))
	}
	// Healthy host 01 collected every round throughout.
	hosts := fc.Ledger().Hosts()
	if hosts[0].HostID != "01" || hosts[0].Collected != 5 || hosts[0].Missed != 0 {
		t.Errorf("host 01 ledger = %+v", hosts[0])
	}
	if hosts[1].Collected != 0 || hosts[1].Missed != 5 || hosts[1].Skipped != 2 || hosts[1].LongestOutage != 5 {
		t.Errorf("host 02 ledger = %+v", hosts[1])
	}
	// Backoff pauses: 2 per fully-retried round (rounds 1-2), none for
	// skip/probe rounds.
	if got := len(sleep.pauses); got != 4 {
		t.Errorf("recorded %d backoff pauses, want 4", got)
	}
}

func TestFleetBreakerRecovery(t *testing.T) {
	ids := []string{"01"}
	agents, keys := testFleet(t, ids)
	sleep := &fakeSleeper{}
	cfg := testConfig(ids, agents, keys, sleep)
	down := map[string]bool{"01": true}
	cfg.Dial = failingDialer(cfg.Dial, down)
	fc, err := NewFleetCollector(NewCollector(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ { // fail, fail(trip), skip, skip
		fc.Round(context.Background(), fleetT0)
	}
	down["01"] = false // agent restarts
	rep := fc.Round(context.Background(), fleetT0)
	if h := rep.Hosts[0]; h.Status != StatusOK || h.Attempts != 1 {
		t.Fatalf("probe after restart = %+v, want ok", h)
	}
	if fc.BreakerState("01") != BreakerClosed {
		t.Fatalf("breaker after successful probe = %v", fc.BreakerState("01"))
	}
}

func TestFleetRoundContextCancelled(t *testing.T) {
	ids := []string{"01"}
	agents, keys := testFleet(t, ids)
	sleep := &fakeSleeper{}
	cfg := testConfig(ids, agents, keys, sleep)
	fc, err := NewFleetCollector(NewCollector(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := fc.Round(ctx, fleetT0)
	h := rep.Hosts[0]
	if h.Status != StatusFailed {
		t.Fatalf("cancelled round outcome = %+v", h)
	}
	if !strings.Contains(h.Err, context.Canceled.Error()) {
		t.Errorf("cancelled round error = %q", h.Err)
	}
}

func TestCollectHostContextCancelled(t *testing.T) {
	agents, keys := testFleet(t, []string{"01"})
	coll := NewCollector(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, c := net.Pipe()
	defer a.Close()
	defer c.Close()
	go func() {
		sess, err := wire.Accept(a, keys, wire.CounterNonce("ctx-test/agent"))
		if err != nil {
			return
		}
		_ = agents["01"].Serve(sess)
	}()
	sess, err := wire.Dial(c, "01", keys["01"], wire.CounterNonce("ctx-test/coll"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coll.CollectHostContext(ctx, sess, "01", fleetT0); !errors.Is(err, context.Canceled) {
		t.Fatalf("CollectHostContext under cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestNewFleetCollectorValidation(t *testing.T) {
	agents, keys := testFleet(t, []string{"01"})
	good := testConfig([]string{"01"}, agents, keys, &fakeSleeper{})
	if _, err := NewFleetCollector(nil, good); err == nil {
		t.Error("nil collector accepted")
	}
	bad := good
	bad.Hosts = nil
	if _, err := NewFleetCollector(NewCollector(0), bad); err == nil {
		t.Error("empty fleet accepted")
	}
	bad = good
	bad.Dial = nil
	if _, err := NewFleetCollector(NewCollector(0), bad); err == nil {
		t.Error("nil dial accepted")
	}
	bad = good
	bad.KeyFor = nil
	if _, err := NewFleetCollector(NewCollector(0), bad); err == nil {
		t.Error("nil KeyFor accepted")
	}
	bad = good
	bad.Retry.MaxAttempts = 0
	if _, err := NewFleetCollector(NewCollector(0), bad); err == nil {
		t.Error("zero MaxAttempts accepted")
	}
}
