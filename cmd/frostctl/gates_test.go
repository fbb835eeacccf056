package main

import (
	"strings"
	"testing"

	"frostlab/internal/loadgen"
)

// checkGate asserts that err is nil when want is empty, and otherwise an
// error containing want.
func checkGate(t *testing.T, name string, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("%s: unexpected gate failure: %v", name, err)
	case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
		t.Errorf("%s: gate returned %v, want an error containing %q", name, err, want)
	}
}

func TestGateServe(t *testing.T) {
	// A healthy run that shed load: the spike's p99 is over budget (only
	// sustain is gated) and goroutines sit exactly at the leak slack.
	healthy := func() *loadgen.Report {
		return &loadgen.Report{
			Phases: []loadgen.PhaseReport{
				{Phase: "warmup", P99Ms: 3},
				{Phase: "sustain", P99Ms: serveSustainP99Ms},
				{Phase: "spike", P99Ms: 900, Rejected: 40, Dropped: 7},
			},
			RoundsPlane: loadgen.RoundsReport{Rounds: 20, HostRounds: 640, OK: 640},
			Ingest:      loadgen.IngestReport{Offered: 20, Done: 18, Shed: 2},
			Healthz:     loadgen.HealthzReport{Probes: 1000},
			Goroutines:  loadgen.GoroutinesReport{Before: 3, After: 3 + serveGoroutineSlack},
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*loadgen.Report)
		want   string
	}{
		{"healthy", func(*loadgen.Report) {}, ""},
		{"unaccounted", func(r *loadgen.Report) { r.Phases[2].Unaccounted = 1 }, "spike: 1 requests unaccounted"},
		{"sustain p99", func(r *loadgen.Report) { r.Phases[1].P99Ms = 250.5 }, "above the 250 ms budget"},
		{"no sustain", func(r *loadgen.Report) { r.Phases = r.Phases[:1] }, "no sustain phase"},
		{"no probes", func(r *loadgen.Report) { r.Healthz.Probes = 0 }, "went dark"},
		{"probe failed", func(r *loadgen.Report) { r.Healthz.Failures = 1 }, "went dark"},
		{"ingest", func(r *loadgen.Report) { r.Ingest.Failed = 1 }, "ingest accounting broken"},
		{"goroutine leak", func(r *loadgen.Report) { r.Goroutines.After++ }, "goroutine leak"},
		{"failed host-rounds", func(r *loadgen.Report) { r.RoundsPlane.Failed = 2 }, "2 collection host-rounds failed"},
	} {
		rep := healthy()
		tc.mutate(rep)
		checkGate(t, tc.name, gateServe(rep), tc.want)
	}
}

func TestGateAlerts(t *testing.T) {
	fresh := func() alertsBench {
		return alertsBench{Classes: []armResult{
			{Class: "sensor-stall", Detected: true, ReplayIdentical: true, MTTDSeconds: 2400},
			{Class: "network-cut", Detected: true, ReplayIdentical: true, MTTDSeconds: 600},
		}}
	}
	ref := fresh()
	ref.Classes[1].MTTDSeconds = 1200
	extra := armResult{Class: "stuck-damper", Detected: true, ReplayIdentical: true}
	for _, tc := range []struct {
		name   string
		mutate func(b, ref *alertsBench)
		noRef  bool
		want   string
	}{
		{"healthy", func(b, ref *alertsBench) {}, false, ""},
		{"allocs", func(b, ref *alertsBench) { b.EvalAllocsPerTick = 0.001 }, false, "warm eval path allocates"},
		{"undetected", func(b, ref *alertsBench) { b.Classes[0].Detected = false }, false, "sensor-stall never fired"},
		{"replay", func(b, ref *alertsBench) { b.Classes[1].ReplayIdentical = false }, false, "network-cut replay"},
		{"mttd", func(b, ref *alertsBench) { b.Classes[0].MTTDSeconds = 2401 }, false, "sensor-stall MTTD 2401s regressed"},
		{"mttd without reference", func(b, ref *alertsBench) { b.Classes[0].MTTDSeconds = 9999 }, true, ""},
		{"class missing from study", func(b, ref *alertsBench) { ref.Classes = append(ref.Classes, extra) }, false, "stuck-damper missing from the study"},
		{"class missing from reference", func(b, ref *alertsBench) { b.Classes = append(b.Classes, extra) }, false, "stuck-damper is not in the reference"},
	} {
		b, r := fresh(), ref
		r.Classes = append([]armResult(nil), ref.Classes...)
		tc.mutate(&b, &r)
		refp := &r
		if tc.noRef {
			refp = nil
		}
		checkGate(t, tc.name, gateAlerts(b, refp), tc.want)
	}
}

func TestGateEcon(t *testing.T) {
	fresh := func() econBench {
		return econBench{
			ReplayIdentical: true,
			ConservationOK:  true,
			FollowColdWins:  1,
			Cells: []econCellBench{
				{Policy: "static", Set: "coastal", Tariff: "flat", Completion: 0.5},
				{Policy: "follow-cold", Set: "coastal", Tariff: "flat", Completion: 1},
			},
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(b, ref *econBench)
		noRef  bool
		want   string
	}{
		{"healthy", func(b, ref *econBench) {}, false, ""},
		{"replay", func(b, ref *econBench) { b.ReplayIdentical = false }, false, "sweep replay"},
		{"allocs", func(b, ref *econBench) { b.WarmTickAllocs = 1 }, false, "warm multi-site tick allocates"},
		{"conservation", func(b, ref *econBench) { b.ConservationOK = false }, false, "conservation violated"},
		{"no follow-cold win", func(b, ref *econBench) { b.FollowColdWins = 0 }, false, "never beat static"},
		{"completion zero", func(b, ref *econBench) { b.Cells[0].Completion = 0 }, false, "static/coastal/flat: completion 0 out of (0, 1]"},
		{"completion above one", func(b, ref *econBench) { b.Cells[1].Completion = 1.01 }, false, "completion 1.01 out of (0, 1]"},
		{"roster", func(b, ref *econBench) { b.Cells[1].Tariff = "paired" }, false, "cell roster drifted"},
		{"roster without reference", func(b, ref *econBench) { b.Cells[1].Tariff = "paired" }, true, ""},
		{"reference invariant", func(b, ref *econBench) { ref.ConservationOK = false }, false, "reference records a violated invariant"},
	} {
		b, ref := fresh(), fresh()
		tc.mutate(&b, &ref)
		refp := &ref
		if tc.noRef {
			refp = nil
		}
		checkGate(t, tc.name, gateEcon(b, refp), tc.want)
	}
}
