package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"frostlab/internal/chaos"
	"frostlab/internal/monitor"
	"frostlab/internal/telemetry"
	"frostlab/internal/wire"
)

// The E13 monitoring-outage study (-phase chaos): an in-process fleet is
// collected for a number of rounds while a seeded fault injector refuses,
// stalls, cuts, and corrupts connections, and the hardened collector's
// gap ledger records exactly what was lost. The whole run is driven by
// named RNG streams, so the same seed and fault spec replay bit-identically.

// The E13 fault mix and collector hardening.
const (
	chaosHosts    = 9
	chaosRounds   = 12
	chaosPRefuse  = 0.05 // per-attempt probability of a refused dial
	chaosPCut     = 0.05 // … of a mid-frame cut
	chaosPCorrupt = 0.1  // … of payload bit corruption
	chaosPStall   = 0.05 // … of a read stall
	chaosRetries  = 3    // collection attempts per host per round
	chaosTrip     = 2    // consecutive failed rounds before a breaker opens
	chaosCooldown = 2    // rounds an open breaker skips before probing
)

// inProcessFleet builds the in-process fleet E13 and E16 collect: hosts
// "01".."n", each an Agent over its own FileStore with the pre-shared
// key seed+"/psk/"+id, dialled through inj. The returned config carries
// the wiring both studies share — deterministic nonces and backoff
// jitter, a 1s×2 backoff that is drawn but never slept, a 30s round
// timeout; callers set attempts, breaker and phase timeout.
func inProcessFleet(seed string, n int, inj *chaos.Injector) (map[string]*monitor.FileStore, monitor.FleetConfig) {
	ids := make([]string, n)
	stores := make(map[string]*monitor.FileStore, n)
	agents := make(map[string]*monitor.Agent, n)
	keys := make(wire.Keystore, n)
	for i := range ids {
		id := fmt.Sprintf("%02d", i+1)
		ids[i] = id
		stores[id] = monitor.NewFileStore()
		agents[id] = monitor.NewAgent(id, stores[id])
		keys[id] = []byte(seed + "/psk/" + id)
	}
	return stores, monitor.FleetConfig{
		Hosts:        ids,
		Dial:         inj.WrapDialer(monitor.InProcessDialer(agents, keys, seed)),
		KeyFor:       keys.Lookup,
		NonceFor:     monitor.InProcessNonces(seed),
		Retry:        monitor.RetryPolicy{BaseBackoff: time.Second, Multiplier: 2},
		RoundTimeout: 30 * time.Second,
		Jitter:       monitor.DeterministicJitter(seed),
		// The studies measure coverage and sim-time latency, not
		// wall-clock, so backoffs are drawn (and therefore deterministic)
		// but not slept.
		Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
}

// parseSchedule parses "03=1-4,07=2-" into round ranges.
func parseSchedule(s string) (map[string][]chaos.RoundRange, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string][]chaos.RoundRange)
	for _, pair := range strings.Split(s, ",") {
		host, span, ok := strings.Cut(pair, "=")
		if !ok || host == "" {
			return nil, fmt.Errorf("bad schedule entry %q (want host=from-to)", pair)
		}
		fromStr, toStr, ok := strings.Cut(span, "-")
		if !ok {
			toStr = fromStr // "host=5" means round 5 only
		}
		from, err := strconv.Atoi(fromStr)
		if err != nil {
			return nil, fmt.Errorf("bad schedule entry %q: %v", pair, err)
		}
		to := 0
		if toStr != "" {
			if to, err = strconv.Atoi(toStr); err != nil {
				return nil, fmt.Errorf("bad schedule entry %q: %v", pair, err)
			}
		}
		out[host] = append(out[host], chaos.RoundRange{From: from, To: to})
	}
	return out, nil
}

// chaosRound is one E13 collection round: the fleet coverage and a note
// for each host that failed or was skipped by its breaker.
type chaosRound struct {
	Coverage float64
	Notes    []string
}

// chaosStudy runs the E13 study and returns its per-round rows and the
// gap ledger's text. A non-nil tracer records the collection plane
// (round and per-host collect spans, wall time).
func chaosStudy(seed, downSpec, stalledSpec string, tracer *telemetry.Tracer) ([]chaosRound, string, error) {
	down, err := parseSchedule(downSpec)
	if err != nil {
		return nil, "", err
	}
	stalled, err := parseSchedule(stalledSpec)
	if err != nil {
		return nil, "", err
	}
	inj, err := chaos.New(chaos.Spec{
		Seed:       seed + "/chaos",
		PRefuse:    chaosPRefuse,
		PStallRead: chaosPStall,
		PCut:       chaosPCut,
		PCorrupt:   chaosPCorrupt,
		Down:       down,
		Stalled:    stalled,
	})
	if err != nil {
		return nil, "", err
	}

	stores, cfg := inProcessFleet(seed, chaosHosts, inj)
	for _, store := range stores {
		store.Append(monitor.MD5Log,
			[]byte("2010-02-19T12:10:00Z OK d41d8cd98f00b204e9800998ecf8427e\n"))
		store.Append(monitor.SensorLog, []byte("2010-02-19T12:10:00Z cpu=-4.1\n"))
	}
	cfg.Retry.MaxAttempts = chaosRetries
	cfg.Breaker = monitor.BreakerConfig{Trip: chaosTrip, Cooldown: chaosCooldown}
	cfg.PhaseTimeout = 2 * time.Second
	cfg.Tracer = tracer
	fc, err := monitor.NewFleetCollector(monitor.NewCollector(0), cfg)
	if err != nil {
		return nil, "", err
	}

	rows := make([]chaosRound, chaosRounds)
	at := time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)
	for i := range rows {
		rep := fc.Round(context.Background(), at)
		at = at.Add(20 * time.Minute)
		rows[i].Coverage = rep.Coverage()
		for _, h := range rep.Hosts {
			switch h.Status {
			case monitor.StatusFailed:
				rows[i].Notes = append(rows[i].Notes, fmt.Sprintf("%s failed (%d attempts)", h.HostID, h.Attempts))
			case monitor.StatusSkipped:
				rows[i].Notes = append(rows[i].Notes, h.HostID+" skipped")
			}
		}
	}
	return rows, fc.Ledger().String(), nil
}

// runChaosStudy prints the E13 study; traceTo, when non-empty, receives
// the collection plane's Chrome trace-event JSON.
func runChaosStudy(seed, downSpec, stalledSpec, traceTo string) error {
	var tracer *telemetry.Tracer
	if traceTo != "" {
		tracer = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
	}
	rows, ledger, err := chaosStudy(seed, downSpec, stalledSpec, tracer)
	if err != nil {
		return err
	}
	fmt.Printf("E13 monitoring-outage study: %d hosts, %d rounds, seed %q\n", chaosHosts, chaosRounds, seed)
	fmt.Printf("faults: refuse %.2f, stall %.2f, cut %.2f, corrupt %.2f; down %q; stalled %q\n\n",
		chaosPRefuse, chaosPStall, chaosPCut, chaosPCorrupt, downSpec, stalledSpec)
	for i, r := range rows {
		detail := ""
		if len(r.Notes) > 0 {
			detail = ": " + strings.Join(r.Notes, ", ")
		}
		fmt.Printf("round %2d: coverage %.4f%s\n", i+1, r.Coverage, detail)
	}
	fmt.Printf("\n%s", ledger)
	if tracer != nil {
		if err := writeFile(traceTo, tracer.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Printf("Chrome trace (%d events) written to %s\n", tracer.Len(), traceTo)
	}
	return nil
}
