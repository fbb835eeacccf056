package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"frostlab/internal/chaos"
	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/monitor"
	"frostlab/internal/rules"
)

// The E16 detection-latency study (-phase alerts): every fault class the
// chaos planes can inject — a stalled sensor host, a network cut, payload
// corruption, stale pooled keepalives, a stuck damper — is driven against
// the rules engine, and the study measures MTTD: the gap between the
// fault taking effect and the matching alert's firing transition. Each
// arm runs twice with the same seed; the incident timelines must be
// byte-identical (digest-compared), and the warm evaluation path must
// not allocate. The full result lands in BENCH_ALERTS.json, and
// gateAlerts holds each class's MTTD to the committed reference.

const (
	alertsHosts     = 6    // fleet size for the collection arms
	alertsDays      = 11   // simulated days for the stuck-damper arm
	alertsStuckTick = 2601 // 1-based control tick the damper jams at (5m cadence)
)

// armResult is one fault class's detection record.
type armResult struct {
	Class           string    `json:"class"`
	Rule            string    `json:"rule"`
	InjectedAt      time.Time `json:"injected_at"`
	FiredAt         time.Time `json:"fired_at"`
	Detected        bool      `json:"detected"`
	MTTDSeconds     float64   `json:"mttd_seconds"`
	ReplayIdentical bool      `json:"replay_identical"`
	TimelineDigest  string    `json:"timeline_digest"`
}

// alertsBench is the BENCH_ALERTS.json shape.
type alertsBench struct {
	Seed              string      `json:"seed"`
	Classes           []armResult `json:"classes"`
	EvalAllocsPerTick float64     `json:"eval_allocs_per_tick"`
}

// fleetArm is one collection-plane fault class: a chaos spec, the rule
// file watching for it, and the round the fault first takes effect.
type fleetArm struct {
	class       string
	watch       string // rule name whose first firing is the detection
	ruleFile    string
	spec        chaos.Spec
	pool        bool
	injectRound int
	rounds      int
	// linesPerRound is how many sensor lines each agent appends per
	// round (0 = 1). The corruption arm needs bulk: the injector flips a
	// bit at a drawn offset within the first 4 KiB of the inbound
	// stream, so the delta payload must reliably reach past it.
	linesPerRound int
}

// alertsStudy runs every E16 arm twice and measures the warm eval path,
// returning the report runAlertsStudy prints and writes.
func alertsStudy(seed string) (alertsBench, error) {
	t0 := time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)
	cadence := 20 * time.Minute

	arms := []fleetArm{
		{
			class: "sensor-stall", watch: "sensor_stall",
			ruleFile: "alert sensor_stall absent(*/cpu,30m) for 20m severity page\n",
			spec: chaos.Spec{
				Seed:       seed + "/stall",
				StallDelay: time.Second,
				Stalled:    map[string][]chaos.RoundRange{"02": {{From: 6}}},
			},
			injectRound: 6, rounds: 12,
		},
		{
			class: "network-cut", watch: "coverage_drop",
			ruleFile: "alert coverage_drop value($coverage) < 0.95 for 20m severity page\n",
			spec: chaos.Spec{
				Seed: seed + "/cut",
				Down: map[string][]chaos.RoundRange{"02": {{From: 6}}, "03": {{From: 6}}},
			},
			injectRound: 6, rounds: 12,
		},
		{
			class: "corruption", watch: "breaker_open",
			ruleFile: "alert breaker_open value($breakers_open) > 0 severity warn\n",
			spec: chaos.Spec{
				Seed:     seed + "/corrupt",
				PCorrupt: 1,
			},
			injectRound: 1, rounds: 8, linesPerRound: 200,
		},
		{
			class: "stale-conn", watch: "pool_churn",
			ruleFile: "alert pool_churn rate($pool_stale,60m) > 0 severity warn\n",
			spec: chaos.Spec{
				Seed:       seed + "/stale",
				PStaleConn: 1,
			},
			pool:        true,
			injectRound: 1, rounds: 8,
		},
	}

	bench := alertsBench{Seed: seed}
	for _, arm := range arms {
		res, err := runFleetArmTwice(seed, alertsHosts, t0, cadence, arm)
		if err != nil {
			return bench, fmt.Errorf("%s: %w", arm.class, err)
		}
		bench.Classes = append(bench.Classes, res)
	}
	damper, err := runDamperArm(seed, alertsDays, alertsStuckTick)
	if err != nil {
		return bench, fmt.Errorf("stuck-damper: %w", err)
	}
	bench.Classes = append(bench.Classes, damper)
	bench.EvalAllocsPerTick = measureEvalAllocs()
	return bench, nil
}

// runAlertsStudy runs E16, prints and writes its report, and exits
// through gateAlerts — against the report already at out, when that was
// recorded for the same seed.
func runAlertsStudy(seed, out string) error {
	ref, err := readReference[alertsBench](out)
	if err != nil {
		return err
	}
	if ref != nil && ref.Seed != seed {
		ref = nil
	}
	fmt.Printf("E16 detection-latency study: %d hosts, seed %q\n\n", alertsHosts, seed)
	bench, err := alertsStudy(seed)
	if err != nil {
		return err
	}
	for _, r := range bench.Classes {
		printArm(r)
	}
	fmt.Printf("\nwarm eval path: %.3f allocs/tick over 1000 ticks\n", bench.EvalAllocsPerTick)
	if ref != nil {
		fmt.Printf("gated against the reference in %s\n", out)
	}
	if out != "" {
		if err := writeJSON(out, bench); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", out)
	}
	return gateAlerts(bench, ref)
}

// gateAlerts holds E16 to its claims: a zero-alloc warm eval path, and
// every fault class detected with a byte-identical replay. Against a
// reference it also requires the same class roster, with no class's
// MTTD above its reference value, so detection can only get faster.
func gateAlerts(b alertsBench, ref *alertsBench) error {
	if b.EvalAllocsPerTick != 0 {
		return fmt.Errorf("E16: warm eval path allocates (%.3f allocs/tick)", b.EvalAllocsPerTick)
	}
	for _, r := range b.Classes {
		if !r.Detected {
			return fmt.Errorf("E16: fault class %s never fired rule %s", r.Class, r.Rule)
		}
		if !r.ReplayIdentical {
			return fmt.Errorf("E16: fault class %s replay produced a different timeline", r.Class)
		}
	}
	if ref == nil {
		return nil
	}
	budget := make(map[string]float64, len(ref.Classes))
	for _, c := range ref.Classes {
		budget[c.Class] = c.MTTDSeconds
	}
	for _, r := range b.Classes {
		mttd, ok := budget[r.Class]
		if !ok {
			return fmt.Errorf("E16: fault class %s is not in the reference", r.Class)
		}
		if r.MTTDSeconds > mttd {
			return fmt.Errorf("E16: fault class %s MTTD %.0fs regressed past the reference %.0fs", r.Class, r.MTTDSeconds, mttd)
		}
		delete(budget, r.Class)
	}
	for _, c := range ref.Classes {
		if _, missing := budget[c.Class]; missing {
			return fmt.Errorf("E16: fault class %s missing from the study", c.Class)
		}
	}
	return nil
}

func printArm(r armResult) {
	status := "MISSED"
	if r.Detected {
		status = fmt.Sprintf("MTTD %s", time.Duration(r.MTTDSeconds*float64(time.Second)).Round(time.Second))
	}
	replay := "replay identical"
	if !r.ReplayIdentical {
		replay = "REPLAY DIVERGED"
	}
	fmt.Printf("%-14s rule %-14s injected %s  %-12s %s\n",
		r.Class, r.Rule, r.InjectedAt.Format("15:04"), status, replay)
}

// runFleetArmTwice runs one collection-plane arm twice with the same
// seed and folds the two runs into a result: detection comes from the
// first run, replay identity from comparing timeline digests.
func runFleetArmTwice(seed string, hosts int, t0 time.Time, cadence time.Duration, arm fleetArm) (armResult, error) {
	fired1, digest1, err := runFleetArmOnce(seed, hosts, t0, cadence, arm)
	if err != nil {
		return armResult{}, err
	}
	fired2, digest2, err := runFleetArmOnce(seed, hosts, t0, cadence, arm)
	if err != nil {
		return armResult{}, err
	}
	injected := t0.Add(time.Duration(arm.injectRound-1) * cadence)
	res := armResult{
		Class:           arm.class,
		Rule:            arm.watch,
		InjectedAt:      injected,
		FiredAt:         fired1,
		Detected:        !fired1.IsZero(),
		ReplayIdentical: digest1 == digest2 && fired1.Equal(fired2),
		TimelineDigest:  digest1,
	}
	if res.Detected {
		res.MTTDSeconds = fired1.Sub(injected).Seconds()
	}
	return res, nil
}

// runFleetArmOnce drives an in-process fleet under the arm's chaos spec
// for the configured rounds, evaluating the rules engine at each round's
// sim-time, and reports the watched rule's first firing plus the
// timeline digest.
func runFleetArmOnce(seed string, hosts int, t0 time.Time, cadence time.Duration, arm fleetArm) (time.Time, string, error) {
	inj, err := chaos.New(arm.spec)
	if err != nil {
		return time.Time{}, "", err
	}
	set, err := rules.Parse([]byte(arm.ruleFile))
	if err != nil {
		return time.Time{}, "", err
	}

	stores, cfg := inProcessFleet(seed, hosts, inj)
	cfg.Retry.MaxAttempts = 2
	cfg.Breaker = monitor.BreakerConfig{Trip: 2, Cooldown: 3}
	cfg.PhaseTimeout = 50 * time.Millisecond
	if arm.pool {
		cfg.Pool = &monitor.PoolConfig{Fault: inj.StaleConn}
	}
	db := monitor.NewSampleDB()
	coll := monitor.NewCollector(0).WithSamples(db)
	fc, err := monitor.NewFleetCollector(coll, cfg)
	if err != nil {
		return time.Time{}, "", err
	}
	defer fc.Close()

	eng := rules.NewEngine(set, db.Store()).
		Live("coverage", func() float64 { return fc.Ledger().Coverage() }).
		Live("pool_stale", func() float64 { return float64(fc.PoolStaleTotal()) }).
		Live("breakers_open", func() float64 {
			open := 0
			for _, id := range cfg.Hosts {
				if fc.BreakerState(id) == monitor.BreakerOpen {
					open++
				}
			}
			return float64(open)
		})

	at := t0
	for round := 1; round <= arm.rounds; round++ {
		// Every agent keeps producing sensor data; whether the collector
		// gets to pick it up is the chaos plane's business. A stalled host
		// has the data — the staleness alert is about the copy the
		// monitoring host can see.
		lines := arm.linesPerRound
		if lines < 1 {
			lines = 1
		}
		for i := 0; i < lines; i++ {
			line := fmt.Sprintf("%s cpu=%.1f load=%d\n",
				at.UTC().Format(time.RFC3339), -6+0.1*float64(round), round*1000+i)
			for _, id := range cfg.Hosts {
				stores[id].Append(monitor.SensorLog, []byte(line))
			}
		}
		fc.Round(context.Background(), at)
		eng.Eval(at)
		at = at.Add(cadence)
	}

	return firstFiring(eng.Timeline(), arm.watch), eng.TimelineDigest(), nil
}

// firstFiring scans a timeline for the watched rule's first firing
// transition.
func firstFiring(tl []rules.Event, rule string) time.Time {
	for _, ev := range tl {
		if ev.Rule == rule && ev.Kind == rules.EvFiring {
			return ev.At
		}
	}
	return time.Time{}
}

// runDamperArm drives the closed-loop control plane with a scripted
// stuck damper and watches the sim-time rules engine catch the
// supervisor's fallback. Detection latency here stacks three cadences:
// the 5-minute control tick, the supervisor's stuck window, and the
// 20-minute monitoring round the engine evaluates on.
func runDamperArm(seed string, days, stuckTick int) (armResult, error) {
	run := func() (*core.Results, error) {
		cfg := core.DefaultConfig(seed)
		cfg.End = cfg.Start.AddDate(0, 0, days)
		cfg.MonitorEvery = 20 * time.Minute
		cfg.LascarArrival = cfg.Start
		cfg.ReadoutEvery = 0
		ctl := control.DefaultConfig()
		// A deep setpoint keeps the loop demanding an open damper whenever
		// the envelope floor allows, so the scripted jam is guaranteed to
		// produce the command/position mismatch the supervisor detects.
		ctl.Setpoint = -5
		cfg.Control = &ctl
		cfg.ActuatorChaos = &chaos.ActuatorSpec{
			Seed:  seed + "/actuator",
			Stuck: map[string][]chaos.RoundRange{"damper": {{From: stuckTick}}},
		}
		var err error
		cfg.Rules, err = rules.Parse([]byte(
			"alert damper_stuck value($control_fallback) > 0 severity page\n"))
		if err != nil {
			return nil, err
		}
		exp, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		return exp.Run()
	}
	r1, err := run()
	if err != nil {
		return armResult{}, err
	}
	r2, err := run()
	if err != nil {
		return armResult{}, err
	}
	if r1.Alerts == nil || r2.Alerts == nil {
		return armResult{}, fmt.Errorf("no alerts report on closed-loop run")
	}
	// The damper jams at the start of control tick stuckTick (1-based,
	// 5-minute cadence).
	injected := r1.Start.Add(time.Duration(stuckTick-1) * 5 * time.Minute)
	fired1 := firstFiring(r1.Alerts.Timeline, "damper_stuck")
	fired2 := firstFiring(r2.Alerts.Timeline, "damper_stuck")
	res := armResult{
		Class:           "stuck-damper",
		Rule:            "damper_stuck",
		InjectedAt:      injected,
		FiredAt:         fired1,
		Detected:        !fired1.IsZero(),
		ReplayIdentical: r1.Alerts.Digest == r2.Alerts.Digest && fired1.Equal(fired2),
		TimelineDigest:  r1.Alerts.Digest,
	}
	if res.Detected {
		res.MTTDSeconds = fired1.Sub(injected).Seconds()
	}
	return res, nil
}

// measureEvalAllocs warms a representative engine — wildcard expansion,
// windowed functions, live gauges, a recording rule — then measures
// mallocs across 1000 evaluation ticks. The tentpole claim is zero.
func measureEvalAllocs() float64 {
	db := monitor.NewSampleDB()
	base := time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)
	for _, id := range []string{"01", "02", "03"} {
		db.Ingest(id, monitor.SensorLog, []byte(fmt.Sprintf(
			"%s cpu=-4.0 disk0=6.0\n", base.UTC().Format(time.RFC3339))))
	}
	set := rules.MustParse(`alert stale absent(*/cpu,45m) for 20m severity page
alert cold value($temp) < 0 for 20m
alert churn rate($counter,60m) > 0
record temp_copy value($temp)
`)
	eng := rules.NewEngine(set, db.Store()).
		Live("temp", func() float64 { return 3 }).
		Live("counter", func() float64 { return 42 })
	at := base
	// Warm until steady state: the instance set builds, the recording
	// rule's output series lands, and the staleness alert walks its full
	// pending → firing path (each transition appends an incident series,
	// which forces one rebuild on the following tick).
	for i := 0; i < 8; i++ {
		at = at.Add(20 * time.Minute)
		eng.Eval(at)
	}
	// testing.AllocsPerRun pins GOMAXPROCS to 1 for the measurement, so
	// stray runtime activity cannot smear the count — the same gate
	// TestEvalWarmPathAllocs applies in the package tests.
	return testing.AllocsPerRun(1000, func() {
		at = at.Add(20 * time.Minute)
		eng.Eval(at)
	})
}
