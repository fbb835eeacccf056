package control

import (
	"testing"
	"time"

	"frostlab/internal/units"
)

func mustController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var t0 = time.Date(2010, time.February, 19, 0, 0, 0, 0, time.UTC)

// in builds a benign input snapshot: dry air, warm surfaces, no fault.
func in(tick int, inside units.Celsius) Inputs {
	return Inputs{
		Now:      t0.Add(time.Duration(tick) * 5 * time.Minute),
		Inside:   inside,
		InsideRH: 30,
		Outside:  inside - 10,
		Surface:  inside + 15,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Mode = Mode(9) },
		func(c *Config) { c.Setpoint = -400 },
		func(c *Config) { c.Deadband = -1 },
		func(c *Config) { c.Ki = -0.1 },
		func(c *Config) { c.Every = 0 },
		func(c *Config) { c.Slew = 0 },
		func(c *Config) { c.Envelope.TempHigh = c.Envelope.TempLow },
		func(c *Config) { c.GuardPosition = 1.2 },
		func(c *Config) { c.GuardHold = 0 },
		func(c *Config) { c.StuckTolerance = 1 },
		func(c *Config) { c.ThrottleAbove = c.BoostBelow },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestDamperSlewAndFaults(t *testing.T) {
	d, err := NewDamper(0.1)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Step(1, false)
	if got != 0.1 {
		t.Fatalf("first step %v, want slew-limited 0.1", got)
	}
	if after := d.Step(1, true); after != got {
		t.Fatalf("stuck step moved %v -> %v", got, after)
	}
	d.Reset(0.96)
	if got := d.Step(1, false); got != 1 {
		t.Fatalf("within-slew step %v, want exact landing on 1", got)
	}
}

func TestDutyCyclerMinHold(t *testing.T) {
	dc := NewDutyCycler(3)
	if got := dc.Step(DutyBoost); got != DutyBoost {
		t.Fatalf("initial switch refused: %v", got)
	}
	// Two ticks in: a change request must be held off.
	if got := dc.Step(DutyNormal); got != DutyBoost {
		t.Fatalf("hold violated after 1 tick: %v", got)
	}
	if got := dc.Step(DutyNormal); got != DutyBoost {
		t.Fatalf("hold violated after 2 ticks: %v", got)
	}
	if got := dc.Step(DutyNormal); got != DutyNormal {
		t.Fatalf("switch refused after hold expired: %v", got)
	}
	if dc.Changes() != 2 {
		t.Fatalf("changes = %d, want 2", dc.Changes())
	}
}

func TestControllerColdTentClosesAndBoosts(t *testing.T) {
	cfg := DefaultConfig()
	c := mustController(t, cfg)
	c.damper.Reset(0.8)
	var out Output
	for i := 0; i < 60; i++ {
		out = c.Step(in(i, -2)) // below envelope low and boost threshold
	}
	if out.Damper != 0 {
		t.Fatalf("damper %v after 60 cold ticks, want 0", out.Damper)
	}
	if !out.Envelope {
		t.Fatalf("envelope override not reported below %v", cfg.Envelope.TempLow)
	}
	if out.Duty != DutyBoost {
		t.Fatalf("duty %v, want boost with a cold closed tent", out.Duty)
	}
}

func TestControllerHotTentOpensThenMigrates(t *testing.T) {
	cfg := DefaultConfig()
	c := mustController(t, cfg)
	sawThrottle := false
	var out Output
	for i := 0; i < 120; i++ {
		out = c.Step(in(i, 31)) // above envelope high and throttle threshold
		if out.Duty == DutyThrottle {
			sawThrottle = true
		}
	}
	if out.Damper != 1 {
		t.Fatalf("damper %v after 120 hot ticks, want 1", out.Damper)
	}
	if !sawThrottle {
		t.Fatal("never throttled on the way to migration")
	}
	if out.Duty != DutyMigrate {
		t.Fatalf("duty %v after sustained saturation heat, want migrate", out.Duty)
	}
}

func TestControllerDewGuardCapsDamper(t *testing.T) {
	cfg := DefaultConfig()
	c := mustController(t, cfg)
	c.damper.Reset(1)
	// Saturated air against a cold surface: dew-point margin is negative.
	wet := Inputs{Now: t0, Inside: 8, InsideRH: 98, Outside: 6, Surface: 5}
	var out Output
	for i := 0; i < 30; i++ {
		wet.Now = t0.Add(time.Duration(i) * cfg.Every)
		out = c.Step(wet)
	}
	if !out.Guard {
		t.Fatal("guard never engaged on saturated intake")
	}
	if out.Damper > cfg.GuardPosition {
		t.Fatalf("damper %v above guard position %v", out.Damper, cfg.GuardPosition)
	}
	st := c.Stats()
	if st.GuardTrips == 0 || st.GuardTicks == 0 {
		t.Fatalf("guard accounting empty: %+v", st)
	}
	// One continuous wet spell is a handful of trips (re-latched while
	// wet), not one per tick.
	if st.GuardTrips > st.GuardTicks {
		t.Fatalf("more trips (%d) than guard ticks (%d)", st.GuardTrips, st.GuardTicks)
	}
}

func TestControllerStuckDamperFallsBackToLadder(t *testing.T) {
	cfg := DefaultConfig()
	const ladderPos = 0.5
	cfg.Fallback = func(time.Time) float64 { return ladderPos }
	c := mustController(t, cfg)

	// Warm tent wants the damper open, but it is stuck shut.
	var out Output
	for i := 0; i < cfg.StuckWindow+2; i++ {
		snap := in(i, 20)
		snap.Stuck = true
		out = c.Step(snap)
	}
	if !out.Fallback {
		t.Fatalf("fallback not engaged after %d stuck ticks", cfg.StuckWindow+2)
	}
	if out.Command != ladderPos {
		t.Fatalf("fallback command %v, want ladder %v", out.Command, ladderPos)
	}

	// The damper heals: it tracks the ladder position, and after the
	// recovery window the loop is handed back to the PID.
	for i := 0; i < 40; i++ {
		out = c.Step(in(100+i, 20))
	}
	if out.Fallback {
		t.Fatal("fallback still engaged long after the damper healed")
	}
	st := c.Stats()
	if st.FallbackTicks == 0 || st.StuckTicks == 0 {
		t.Fatalf("fallback accounting empty: %+v", st)
	}
}

func TestControllerDeterministicAndTraced(t *testing.T) {
	run := func() (*Trace, Stats) {
		c := mustController(t, DefaultConfig())
		tr := c.EnableTrace(300)
		for i := 0; i < 300; i++ {
			temp := units.Celsius(5 + 12*float64(i%50)/50)
			c.Step(in(i, temp))
		}
		return tr, c.Stats()
	}
	a, sa := run()
	b, sb := run()
	if sa != sb {
		t.Fatalf("stats differ across identical replays:\n%+v\n%+v", sa, sb)
	}
	if len(a.PV) != 300 {
		t.Fatalf("trace recorded %d samples, want 300", len(a.PV))
	}
	for i := range a.PV {
		if a.PV[i] != b.PV[i] || a.Damper[i] != b.Damper[i] || a.Duty[i] != b.Duty[i] {
			t.Fatalf("trace sample %d differs across replays", i)
		}
	}
}

func TestControllerStepAllocs(t *testing.T) {
	c := mustController(t, DefaultConfig())
	c.EnableTrace(100) // fills up, then recording must stop allocation-free
	snaps := make([]Inputs, 400)
	for i := range snaps {
		snaps[i] = in(i, units.Celsius(4+float64(i%20)))
	}
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		c.Step(snaps[i%len(snaps)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Controller.Step allocates %v per tick, want 0", allocs)
	}
}

func TestHysteresisModeBangsDamper(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeHysteresis
	c := mustController(t, cfg)
	var out Output
	for i := 0; i < 40; i++ {
		out = c.Step(in(i, 20)) // far above setpoint
	}
	if out.Command != 1 {
		t.Fatalf("hot hysteresis command %v, want 1", out.Command)
	}
	for i := 0; i < 40; i++ {
		out = c.Step(in(40+i, 6)) // below setpoint − deadband, above envelope low
	}
	if out.Command != 0 {
		t.Fatalf("cold hysteresis command %v, want 0", out.Command)
	}
}
