package frostlab_test

import (
	"fmt"
	"runtime"
	"testing"

	"frostlab/internal/core"
	"frostlab/internal/hardware"
	"frostlab/internal/telemetry"
)

// shardedConfig builds the scale-engine benchmark recipe: the reference
// winter and calibration over a synthetic tent-grouped fleet.
func shardedConfig(b *testing.B, tents, hostsPerTent int) core.Config {
	b.Helper()
	fleet, err := hardware.SyntheticFleet(tents, hostsPerTent, "scale-"+core.ReferenceSeed)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(core.ReferenceSeed)
	cfg.MonitorEvery = 0
	cfg.Fleet = fleet
	return cfg
}

// benchSharded runs one full sharded winter per iteration (construction,
// stepping, assembly) and reports ns per simulated host-hour.
func benchSharded(b *testing.B, tents, hostsPerTent int, instrument bool) {
	cfg := shardedConfig(b, tents, hostsPerTent)
	shards := runtime.GOMAXPROCS(0)
	hosts := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := core.NewSharded(cfg, shards)
		if err != nil {
			b.Fatal(err)
		}
		if instrument {
			e.InstrumentTelemetry(telemetry.NewRegistry())
		}
		r, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		hosts = len(r.Hosts)
		if i == 0 {
			logOnce(b, fmt.Sprintf("sharded-%dx%d-%v", tents, hostsPerTent, instrument),
				fmt.Sprintf("%d hosts in %d tents, %d shards: tent failure rate %v, %d events, %.0f kWh",
					hosts, tents, e.Shards(), r.TentHostFailureRate, len(r.Events), float64(r.TentEnergy)))
		}
	}
	reportPerHostHour(b, hosts, cfg)
}

// BenchmarkShardedFleet10k is the scale headline: a 10 080-host winter
// (112 tents × 90 hosts, 35 simulated days) through the struct-of-arrays
// sharded engine. TestShardedScaleGate holds this under the 19-host
// classic BenchmarkReferenceRun's wall-clock — a >500× improvement in
// ns/host-hour.
func BenchmarkShardedFleet10k(b *testing.B) {
	benchSharded(b, 112, 90, false)
}

// BenchmarkShardedFleet10kInstrumented adds the shard telemetry plane
// (busy gauges, tick counter, step-duration histogram);
// TestShardedScaleGate holds it within 5% of BenchmarkShardedFleet10k.
func BenchmarkShardedFleet10kInstrumented(b *testing.B) {
	benchSharded(b, 112, 90, true)
}

// BenchmarkShardedFleet100k stretches the same engine to 100 800 hosts;
// not gated, but logged so scaling regressions are visible in CI output.
func BenchmarkShardedFleet100k(b *testing.B) {
	benchSharded(b, 1120, 90, false)
}
