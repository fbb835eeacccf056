// Package campaign is frostlab's parallel Monte-Carlo replication and
// parameter-sweep engine. A single seeded run of internal/core reproduces
// the paper's §4 result together with its limitation: at nine hosts per
// arm, the tent's 5.6 % host failure rate is not statistically
// distinguishable from the control group's 0 %. A campaign runs many
// independently seeded replicates of the same experiment across all cores,
// streams each finished run into bounded-memory pooled aggregates —
// failure rates with Wilson and bootstrap confidence intervals, wrong-hash
// rates per workload cycle, cross-run min/mean/max envelopes of the
// Fig. 3/4 series — and closes with the power analysis the paper could
// not afford: how many hosts (and how many nine-host winters) it would
// take to separate the tent from the control at 95 %.
//
// On top of pure replication, a campaign can sweep declarative axes —
// climate preset, fleet size, monitoring cadence, the R/I/B/F modification
// ladder — forming the cross product of every axis value. Every replicate
// shares the same `<seed>/rep/<i>` derivation across sweep points (common
// random numbers), so differences between points are never RNG artefacts.
//
// Completed runs are persisted through internal/core's result serializer:
// an interrupted campaign restarts from its checkpoint directory and only
// runs what is missing.
package campaign

import (
	"fmt"
	"strings"
	"time"

	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/hardware"
	"frostlab/internal/units"
	"frostlab/internal/weather"
)

// DefaultEnvelopeGrid is the resampling bucket used for cross-run
// time-series envelopes: wide enough that a 35-day campaign keeps ~140
// points per series per replicate, which is what makes the reducer's
// memory bounded.
const DefaultEnvelopeGrid = 6 * time.Hour

// Spec configures a campaign.
type Spec struct {
	// Seed is the campaign master seed. Replicate i of every sweep point
	// runs with the derived seed RepSeed(Seed, i).
	Seed string
	// Reps is the number of replicates per sweep point.
	Reps int
	// Workers is the worker-pool width; <= 0 selects GOMAXPROCS.
	Workers int
	// Days overrides the normal-phase length (0 = the paper horizon).
	Days int
	// EnvelopeGrid is the resampling bucket for cross-run envelopes;
	// <= 0 selects DefaultEnvelopeGrid.
	EnvelopeGrid time.Duration
	// BootstrapIters sizes the bootstrap CI of the mean per-replicate
	// tent rate; <= 0 selects 1000.
	BootstrapIters int
	// CheckpointDir, when non-empty, persists every completed run as
	// JSON (via core.SaveResults) and resumes from existing files.
	CheckpointDir string
	// Sweep declares the parameter axes; the zero value is a pure
	// replication campaign at the reference configuration.
	Sweep Sweep
	// Mutate, when set, adjusts each replicate's configuration after the
	// sweep point has been applied (test hook and escape hatch for
	// bespoke studies).
	Mutate func(rep int, cfg *core.Config)
	// Progress, when set, is called after every finished run (including
	// runs restored from checkpoints) from the collection goroutine.
	Progress func(done, total int, rs RunSummary)
	// Metrics, when set, records engine throughput, failures, panics,
	// and worker utilization; see NewMetrics. nil disables recording.
	Metrics *Metrics
}

// Sweep declares the campaign's parameter axes. Empty axes are pinned at
// the reference value; non-empty axes multiply into the cross product of
// sweep points.
type Sweep struct {
	// Climates are weather presets from internal/weather's climate
	// library ("" = the calibrated winter-0910 reference model).
	Climates []string
	// FleetPairs are fleet sizes in tent/basement host pairs
	// (0 = the paper's reference fleet with its Fig. 2 timeline).
	FleetPairs []int
	// MonitorEvery are collection cadences. Empty pins 0 (monitoring
	// disabled): the rsync plane costs far more than the physics and
	// contributes nothing to pooled reliability statistics.
	MonitorEvery []time.Duration
	// Mods toggles the R/I/B/F modification ladder.
	Mods []bool
	// ControlSetpoints enables the closed-loop control plane
	// (internal/control) and sweeps its ventilation setpoint in °C.
	// Empty leaves the paper's open-loop calendar in force, unless
	// ControlGains is swept (the default setpoint is then pinned).
	ControlSetpoints []float64
	// ControlGains sweeps PID gain triples for the closed loop; empty
	// pins the default gains. Sweeping either control axis turns the
	// controller on for every point of that axis.
	ControlGains []PIDGains
}

// PIDGains is one gain triple of the ControlGains sweep axis.
type PIDGains struct {
	Kp, Ki, Kd float64
}

// point is one cell of the sweep cross product.
type point struct {
	climate    string
	fleetPairs int
	monitor    time.Duration
	mods       bool
	ctlOn      bool
	ctlSet     float64
	ctlGains   PIDGains
	label      string
}

// RepSeed derives replicate i's master seed. The derivation feeds
// simkernel's SHA-256 stream seeding, so replicates draw independent
// weather and failure sample paths (see the collision test).
func RepSeed(seed string, i int) string {
	return fmt.Sprintf("%s/rep/%d", seed, i)
}

// points expands the sweep into its cross product, labelling each point by
// the axes actually swept ("base" when none are).
func (s *Spec) points() []point {
	climates := s.Sweep.Climates
	if len(climates) == 0 {
		climates = []string{""}
	}
	fleets := s.Sweep.FleetPairs
	if len(fleets) == 0 {
		fleets = []int{0}
	}
	monitors := s.Sweep.MonitorEvery
	if len(monitors) == 0 {
		monitors = []time.Duration{0}
	}
	mods := s.Sweep.Mods
	if len(mods) == 0 {
		mods = []bool{true}
	}
	// Sweeping either control axis switches the closed loop on for every
	// point of that expansion; the other axis is pinned at its default.
	type ctlCell struct {
		on       bool
		setpoint float64
		gains    PIDGains
	}
	ctls := []ctlCell{{}}
	if len(s.Sweep.ControlSetpoints) > 0 || len(s.Sweep.ControlGains) > 0 {
		def := control.DefaultConfig()
		setpoints := s.Sweep.ControlSetpoints
		if len(setpoints) == 0 {
			setpoints = []float64{float64(def.Setpoint)}
		}
		gains := s.Sweep.ControlGains
		if len(gains) == 0 {
			gains = []PIDGains{{Kp: def.Kp, Ki: def.Ki, Kd: def.Kd}}
		}
		ctls = ctls[:0]
		for _, sp := range setpoints {
			for _, g := range gains {
				ctls = append(ctls, ctlCell{on: true, setpoint: sp, gains: g})
			}
		}
	}
	var pts []point
	for _, cl := range climates {
		for _, fp := range fleets {
			for _, mon := range monitors {
				for _, md := range mods {
					for _, ctl := range ctls {
						pt := point{
							climate: cl, fleetPairs: fp, monitor: mon, mods: md,
							ctlOn: ctl.on, ctlSet: ctl.setpoint, ctlGains: ctl.gains,
						}
						var parts []string
						if len(s.Sweep.Climates) > 0 {
							name := cl
							if name == "" {
								name = "reference"
							}
							parts = append(parts, "climate="+name)
						}
						if len(s.Sweep.FleetPairs) > 0 {
							parts = append(parts, fmt.Sprintf("fleet=%dx2", fp))
						}
						if len(s.Sweep.MonitorEvery) > 0 {
							parts = append(parts, "monitor="+mon.String())
						}
						if len(s.Sweep.Mods) > 0 {
							if md {
								parts = append(parts, "mods=on")
							} else {
								parts = append(parts, "mods=off")
							}
						}
						if len(s.Sweep.ControlSetpoints) > 0 {
							parts = append(parts, fmt.Sprintf("setpoint=%g°C", ctl.setpoint))
						}
						if len(s.Sweep.ControlGains) > 0 {
							parts = append(parts, fmt.Sprintf("gains=%g/%g/%g",
								ctl.gains.Kp, ctl.gains.Ki, ctl.gains.Kd))
						}
						if len(parts) == 0 {
							pt.label = "base"
						} else {
							pt.label = strings.Join(parts, " ")
						}
						pts = append(pts, pt)
					}
				}
			}
		}
	}
	return pts
}

// config builds replicate rep's experiment configuration at sweep point pt.
func (s *Spec) config(pt point, rep int) (core.Config, error) {
	seed := RepSeed(s.Seed, rep)
	cfg := core.DefaultConfig(seed)
	cfg.MonitorEvery = pt.monitor
	if s.Days > 0 {
		cfg.End = cfg.Start.AddDate(0, 0, s.Days)
	}
	if !pt.mods {
		cfg.Modifications = nil
	}
	if pt.climate != "" {
		cl, err := weather.LookupClimate(pt.climate)
		if err != nil {
			return cfg, err
		}
		m, err := cl.Model(cfg.Start, seed)
		if err != nil {
			return cfg, err
		}
		cfg.Weather = m
	}
	if pt.fleetPairs > 0 {
		fleet, err := BuildFleet(pt.fleetPairs, cfg.Start)
		if err != nil {
			return cfg, err
		}
		cfg.Fleet = fleet
	}
	if pt.ctlOn {
		cc := control.DefaultConfig()
		cc.Setpoint = units.Celsius(pt.ctlSet)
		cc.Kp, cc.Ki, cc.Kd = pt.ctlGains.Kp, pt.ctlGains.Ki, pt.ctlGains.Kd
		cfg.Control = &cc
	}
	if s.Mutate != nil {
		s.Mutate(rep, &cfg)
	}
	return cfg, nil
}

// fleetVendorPattern mirrors the paper's §3.4 vendor mix (five A, two B,
// two C machines per nine-host arm).
var fleetVendorPattern = []hardware.Vendor{
	hardware.VendorA, hardware.VendorA, hardware.VendorB, hardware.VendorC,
	hardware.VendorA, hardware.VendorA, hardware.VendorB, hardware.VendorC,
	hardware.VendorA,
}

// BuildFleet constructs a campaign fleet of the given number of twinned
// tent/basement pairs, all installed at the campaign start so every host
// sees the full exposure window. Vendors cycle through the paper's mix.
func BuildFleet(pairs int, at time.Time) (*hardware.Fleet, error) {
	if pairs <= 0 {
		return nil, fmt.Errorf("campaign: fleet needs at least one pair, got %d", pairs)
	}
	f := hardware.NewFleet()
	for i := 0; i < pairs; i++ {
		spec, err := hardware.SpecFor(fleetVendorPattern[i%len(fleetVendorPattern)])
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("h%02d", i+1)
		tent := &hardware.Host{
			ID: id, Spec: spec, Location: hardware.Tent, InstalledAt: at, TwinID: "c" + id,
		}
		twin := &hardware.Host{
			ID: "c" + id, Spec: spec, Location: hardware.Basement, InstalledAt: at, TwinID: id,
		}
		if err := f.Add(tent); err != nil {
			return nil, err
		}
		if err := f.Add(twin); err != nil {
			return nil, err
		}
	}
	return f, nil
}
