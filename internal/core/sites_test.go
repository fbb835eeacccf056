package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"frostlab/internal/econ"
	"frostlab/internal/weather"
)

func shortMultiSiteConfig(policy string) MultiSiteConfig {
	cfg := DefaultMultiSiteConfig("sites-test")
	cfg.Policy = policy
	cfg.End = cfg.Start.AddDate(0, 0, 7)
	return cfg
}

// TestMultiSiteDeterminism: two independent runs of the same config are
// byte-identical (equal digests) even across different GOMAXPROCS
// settings, and a different seed diverges.
func TestMultiSiteDeterminism(t *testing.T) {
	run := func(seed string, procs int) string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg := shortMultiSiteConfig("follow-cold")
		cfg.Seed = seed
		e, err := NewMultiSite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.Digest()
	}
	d1 := run("det-seed", 1)
	d2 := run("det-seed", runtime.NumCPU())
	if d1 != d2 {
		t.Fatalf("replay digest differs across GOMAXPROCS: %s vs %s", d1, d2)
	}
	if d1 == run("det-seed-2", 1) {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestMultiSiteWarmTickAllocFree: after the first tick (cold caches, trace
// arrays already preallocated), Step must not allocate.
func TestMultiSiteWarmTickAllocFree(t *testing.T) {
	e, err := NewMultiSite(shortMultiSiteConfig("follow-cold"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // warm up: prime policy and memos
		if !e.Step() {
			t.Fatal("horizon too short for warmup")
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if !e.Step() {
			t.Fatal("horizon exhausted during alloc measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("warm multi-site tick allocates %v/op, budget is 0", avg)
	}
}

// TestMultiSiteConservation: the engine's own invariant check must hold,
// and re-deriving it from the results must agree — every demanded cycle is
// completed or shed, migrations balance.
func TestMultiSiteConservation(t *testing.T) {
	for _, policy := range []string{"static", "follow-cold", "follow-green"} {
		e, err := NewMultiSite(shortMultiSiteConfig(policy))
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run() // Run calls CheckConservation internally
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		meters := make([]econ.Meter, len(r.Sites))
		for i := range r.Sites {
			meters[i] = r.Sites[i].Meter
		}
		if err := econ.CheckConservation(meters, r.Demanded, 1e-6*(1+r.Demanded)); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if r.TotalMeter.CyclesDone <= 0 {
			t.Fatalf("%s: fleet completed no work", policy)
		}
		if r.Demanded <= 0 || r.Ticks == 0 {
			t.Fatalf("%s: empty run: %+v", policy, r)
		}
	}
}

// TestFollowColdBeatsStatic is the E17 headline at test scale: with a hot
// unsafe-leaning site in the mix, follow-cold completes more work at lower
// $/cycle than static placement, because static sheds the desert/tropical
// share while follow-cold routes it to safe, cheap sites.
func TestFollowColdBeatsStatic(t *testing.T) {
	run := func(policy string) *FleetResult {
		e, err := NewMultiSite(shortMultiSiteConfig(policy))
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	static, follow := run("static"), run("follow-cold")
	if follow.TotalMeter.CyclesDone <= static.TotalMeter.CyclesDone {
		t.Fatalf("follow-cold completed %.1f cycles, static %.1f; expected more",
			follow.TotalMeter.CyclesDone, static.TotalMeter.CyclesDone)
	}
	if follow.CostPerCycle() >= static.CostPerCycle() {
		t.Fatalf("follow-cold $/cycle %.5f not below static %.5f",
			follow.CostPerCycle(), static.CostPerCycle())
	}
	if follow.Migrated == 0 {
		t.Fatal("follow-cold never migrated anything; policy inert")
	}
	if static.Migrated != 0 {
		t.Fatalf("static migrated %.1f cycles; it must not migrate", static.Migrated)
	}
}

// TestMultiSiteSerialization: the canonical JSON round-trips through the
// digest stably, and the writer emits the schema fields.
func TestMultiSiteSerialization(t *testing.T) {
	e, err := NewMultiSite(shortMultiSiteConfig("follow-green"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Digest() != r.Digest() {
		t.Fatal("digest unstable across calls")
	}
	var buf bytes.Buffer
	if err := WriteFleetJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"version": 1`, `"policy": "follow-green"`, `"sites":`,
		`"cycles_done"`, `"price_usd_kwh"`, `"migrated_cycles"`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("serialized fleet missing %s", want)
		}
	}
	if r.Completion() <= 0 || r.Completion() > 1+1e-9 {
		t.Fatalf("completion %v out of (0, 1]", r.Completion())
	}
}

// TestMultiSiteConfigValidate covers the rejection paths.
func TestMultiSiteConfigValidate(t *testing.T) {
	good := DefaultMultiSiteConfig("v")
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mut := []func(*MultiSiteConfig){
		func(c *MultiSiteConfig) { c.Seed = "" },
		func(c *MultiSiteConfig) { c.End = c.Start },
		func(c *MultiSiteConfig) { c.Sites = nil },
		func(c *MultiSiteConfig) { c.Sites[0].Name = "" },
		func(c *MultiSiteConfig) { c.Sites[1].Name = c.Sites[0].Name },
		func(c *MultiSiteConfig) { c.Sites[0].Hosts = 0 },
		func(c *MultiSiteConfig) { c.Sites[0].Climate = "atlantis" },
		func(c *MultiSiteConfig) { c.Sites[0].Tariff = "barter" },
		func(c *MultiSiteConfig) { c.Policy = "chase-the-sun" },
	}
	for i, m := range mut {
		cfg := DefaultMultiSiteConfig("v")
		// Deep-ish copy of the slice so mutations don't leak between cases.
		cfg.Sites = append([]SiteConfig(nil), cfg.Sites...)
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestMultiSiteHorizon: Step refuses to run past the horizon and Ticks
// matches the configured span.
func TestMultiSiteHorizon(t *testing.T) {
	cfg := shortMultiSiteConfig("static")
	cfg.End = cfg.Start.Add(60 * time.Minute)
	e, err := NewMultiSite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Ticks() != 6 {
		t.Fatalf("60 min at the 10-min dispatch tick should be 6 ticks, got %d", e.Ticks())
	}
	n := 0
	for e.Step() {
		n++
	}
	if n != 6 || e.Step() {
		t.Fatalf("stepped %d times; Step past horizon must return false", n)
	}
	if _, err := e.Results(); err != nil {
		t.Fatal(err)
	}
	_ = weather.ExperimentEpoch
}
