package main

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"frostlab/internal/campaign"
	"frostlab/internal/climate"
	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/econ"
	"frostlab/internal/report"
)

// The E17 economics study (-phase econ): the multi-site fleet — one site
// per climate family, each on its geographic tariff — swept over
// placement policy x fleet composition x price regime. The study reports
// $/kWh-derived cost and gCO₂ per completed work-cycle for every cell,
// and gates four invariants by exit status: the whole sweep replays
// byte-identically (digest-compared double run), the warm multi-site
// tick is allocation-free, every cell conserves work-cycles exactly,
// and follow-the-cold beats static placement on at least one
// (fleet, tariff) pair. The full result lands in BENCH_ECON.json, and
// gateEcon holds the cell roster to the committed reference.

const (
	econDays  = 28 // simulated days per sweep cell
	econHosts = 9  // hosts per site
)

// econCellBench is one sweep cell's row in BENCH_ECON.json.
type econCellBench struct {
	Policy         string  `json:"policy"`
	Set            string  `json:"set"`
	Tariff         string  `json:"tariff"`
	Completion     float64 `json:"completion"`
	CostPerCycle   float64 `json:"cost_per_cycle_usd"`
	CarbonPerCycle float64 `json:"carbon_per_cycle_g"`
	EffectivePrice float64 `json:"effective_price_usd_kwh"`
	EnergyKWh      float64 `json:"energy_kwh"`
	Migrated       float64 `json:"migrated_cycles"`
	Shed           float64 `json:"shed_cycles"`
	Digest         string  `json:"digest"`
}

// econBench is the BENCH_ECON.json shape.
type econBench struct {
	Seed              string             `json:"seed"`
	Days              int                `json:"days"`
	HostsPerSite      int                `json:"hosts_per_site"`
	Cells             []econCellBench    `json:"cells"`
	SweepDigest       string             `json:"sweep_digest"`
	ReplayIdentical   bool               `json:"replay_identical"`
	WarmTickAllocs    float64            `json:"warm_tick_allocs"`
	ConservationOK    bool               `json:"conservation_ok"`
	FollowColdSavings map[string]float64 `json:"follow_cold_savings_usd_per_cycle"`
	FollowColdWins    int                `json:"follow_cold_wins"`
}

// econStudy runs the E17 sweep twice and re-derives its invariants,
// returning the report runEconStudy writes and the rendered sweep table
// (preceded by any conservation violation) it prints.
func econStudy(seed string) (econBench, string, error) {
	spec := campaign.DefaultEconSpec(seed)
	spec.Days = econDays
	spec.HostsPerSite = econHosts
	sum, err := campaign.RunEcon(spec)
	if err != nil {
		return econBench{}, "", err
	}
	// Replay gate: the entire sweep again, digest-compared.
	again, err := campaign.RunEcon(spec)
	if err != nil {
		return econBench{}, "", fmt.Errorf("replay run: %w", err)
	}
	keys, savings := sum.Advantage("follow-cold", "static")
	bench := econBench{
		Seed:              seed,
		Days:              spec.Days,
		HostsPerSite:      spec.HostsPerSite,
		SweepDigest:       sum.Digest(),
		ReplayIdentical:   sum.Digest() == again.Digest(),
		WarmTickAllocs:    measureEconTickAllocs(seed, econHosts),
		ConservationOK:    true,
		FollowColdSavings: savings,
	}
	for _, k := range keys {
		if savings[k] > 0 {
			bench.FollowColdWins++
		}
	}

	// Conservation gate: re-derive every cell's work-cycle accounting from
	// the results (the engine also checks internally on Run).
	var text strings.Builder
	for i := range sum.Cells {
		c := &sum.Cells[i]
		r := c.Result
		meters := make([]econ.Meter, len(r.Sites))
		for j := range r.Sites {
			meters[j] = r.Sites[j].Meter
		}
		if err := econ.CheckConservation(meters, r.Demanded, 1e-6*(1+r.Demanded)); err != nil {
			bench.ConservationOK = false
			fmt.Fprintf(&text, "conservation violated in %s: %v\n", c.Label, err)
		}
		bench.Cells = append(bench.Cells, econCellBench{
			Policy:         c.Policy,
			Set:            c.Set,
			Tariff:         c.Tariff,
			Completion:     r.Completion(),
			CostPerCycle:   r.CostPerCycle(),
			CarbonPerCycle: r.CarbonPerCycle(),
			EffectivePrice: r.TotalMeter.EffectivePrice(),
			EnergyKWh:      float64(r.TotalMeter.Energy()),
			Migrated:       r.Migrated,
			Shed:           r.Shed,
			Digest:         r.Digest(),
		})
	}
	table, err := report.Econ(sum)
	if err != nil {
		return econBench{}, "", err
	}
	text.WriteString(table)
	return bench, text.String(), nil
}

// runEconStudy runs E17, prints and writes its report, and exits through
// gateEcon — against the report already at out, when that was recorded
// for the same seed.
func runEconStudy(seed, out string) error {
	ref, err := readReference[econBench](out)
	if err != nil {
		return err
	}
	if ref != nil && ref.Seed != seed {
		ref = nil
	}
	fmt.Printf("E17 economics study: %d-day cells, %d hosts/site, seed %q\n\n", econDays, econHosts, seed)
	bench, text, err := econStudy(seed)
	if err != nil {
		return err
	}
	fmt.Println(text)

	replay := "replay identical"
	if !bench.ReplayIdentical {
		replay = "REPLAY DIVERGED"
	}
	fmt.Printf("sweep digest %s (%s)\n", bench.SweepDigest, replay)
	fmt.Printf("warm multi-site tick: %.3f allocs over 100 ticks\n", bench.WarmTickAllocs)
	fmt.Printf("follow-cold beats static on %d of %d (fleet, tariff) pairs\n", bench.FollowColdWins, len(bench.FollowColdSavings))
	if ref != nil {
		fmt.Printf("gated against the reference in %s\n", out)
	}
	if out != "" {
		if err := writeJSON(out, bench); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", out)
	}
	return gateEcon(bench, ref)
}

// gateEcon holds E17 to its claims: a byte-identical sweep replay, an
// allocation-free warm tick, exact work-cycle conservation, at least one
// (fleet, tariff) pair where follow-cold beats static, and every cell's
// completion in (0, 1]. Against a reference it also requires the same
// cell roster, and a reference that itself records none of the first
// three invariants violated.
func gateEcon(b econBench, ref *econBench) error {
	if !b.ReplayIdentical {
		return fmt.Errorf("E17: sweep replay produced a different digest")
	}
	if b.WarmTickAllocs != 0 {
		return fmt.Errorf("E17: warm multi-site tick allocates (%.3f allocs/tick)", b.WarmTickAllocs)
	}
	if !b.ConservationOK {
		return fmt.Errorf("E17: work-cycle conservation violated")
	}
	if b.FollowColdWins < 1 {
		return fmt.Errorf("E17: follow-cold never beat static placement")
	}
	for _, c := range b.Cells {
		if !(c.Completion > 0 && c.Completion <= 1) {
			return fmt.Errorf("E17: %s/%s/%s: completion %v out of (0, 1]", c.Policy, c.Set, c.Tariff, c.Completion)
		}
	}
	if ref == nil {
		return nil
	}
	if !maps.Equal(cellRoster(b.Cells), cellRoster(ref.Cells)) {
		return fmt.Errorf("E17: cell roster drifted from the committed reference")
	}
	if !ref.ReplayIdentical || ref.WarmTickAllocs != 0 || !ref.ConservationOK {
		return fmt.Errorf("E17: the reference records a violated invariant")
	}
	return nil
}

// cellRoster is the set of (policy, set, tariff) axes a sweep covered.
func cellRoster(cells []econCellBench) map[[3]string]bool {
	out := make(map[[3]string]bool, len(cells))
	for _, c := range cells {
		out[[3]string{c.Policy, c.Set, c.Tariff}] = true
	}
	return out
}

// measureEconTickAllocs warms a default multi-site engine past its cold
// caches, then measures mallocs across 100 dispatch ticks. The tentpole
// claim is zero.
func measureEconTickAllocs(seed string, hosts int) float64 {
	cfg := core.DefaultMultiSiteConfig(seed + "/allocs")
	for i := range cfg.Sites {
		cfg.Sites[i].Hosts = hosts
	}
	eng, err := core.NewMultiSite(cfg)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 8; i++ {
		eng.Step()
	}
	return testing.AllocsPerRun(100, func() { eng.Step() })
}

// listClimates prints the scenario library (-list-climates): every
// family's catalogue line and parameter defaults.
func listClimates() {
	fmt.Println("Scenario library (internal/climate):")
	for _, f := range climate.Families() {
		fmt.Printf("\n%s — %s\n", f.Name, f.Description)
		p := f.Defaults
		fmt.Printf("  latitude %.1f°N, mean %.1f °C (%+.2f °C/day), diurnal ±%.1f °C, synoptic ±%.1f °C\n",
			p.Latitude, p.MeanTemp, p.WarmingPerDay, p.DiurnalAmplitude, p.SynopticAmplitude)
		fmt.Printf("  RH %.0f%%, wind %.1f m/s, stress %.2f\n", p.MeanRH, p.MeanWind, p.Stress)
	}
	fmt.Println("\nTariff presets (internal/econ):")
	for _, tf := range econ.Tariffs() {
		fmt.Printf("\n%s — %s\n", tf.Name, tf.Description)
		d := tf.Defaults
		fmt.Printf("  base $%.3f/kWh, diurnal ±$%.3f (peak %02.0f:00), duck -$%.3f, volatility %.2f\n",
			d.BasePrice, d.DiurnalAmp, d.PeakHour, d.DuckAmp, d.Volatility)
		fmt.Printf("  carbon %.0f ±%.0f gCO₂/kWh\n", d.BaseCarbon, d.CarbonSwing)
	}
}

// listPolicies prints the placement-policy library (-list-policies).
func listPolicies() {
	fmt.Println("Site placement policies (internal/control):")
	for _, p := range control.Policies() {
		fmt.Printf("\n%s — %s\n", p.Name, p.Description)
	}
	def := control.DefaultFollowConfig()
	fmt.Printf("\nfollow-* hysteresis defaults: switch margin %.0f%%, hold %d ticks\n",
		100*def.SwitchMargin, def.HoldTicks)
}
