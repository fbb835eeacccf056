//go:build benchgate

package frostlab_test

import "testing"

// The timing gates CI holds the engines to. Wall-clock ratios depend on
// the machine and its neighbours, so they sit behind the benchgate build
// tag, out of the plain go test ./... run:
//
//	go test -p 1 -tags benchgate -run Gate -v . ./internal/tsdb
//
// -p 1 matters whenever more than one package is named: go test runs
// packages in parallel, and another package's tests would share the
// CPUs with the arms being timed.
//
// Each gate measures the existing benchmarks through testing.Benchmark
// (so -benchtime applies), gateRuns times per arm, and compares means.

// gateRuns is how many times each arm is measured.
const gateRuns = 3

// overheadBudgetPct is the most an instrumented run may cost over its
// bare twin.
const overheadBudgetPct = 5.0

// armMeans measures each arm gateRuns times, taking the arms in turn so
// that drift in the host's load falls on every arm alike, and returns
// each arm's mean ns/op.
func armMeans(t *testing.T, arms ...func(*testing.B)) []float64 {
	t.Helper()
	means := make([]float64, len(arms))
	for run := 1; run <= gateRuns; run++ {
		for i, arm := range arms {
			r := testing.Benchmark(arm)
			if r.N == 0 {
				t.Fatalf("arm %d, run %d: the benchmark failed", i, run)
			}
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			t.Logf("arm %d, run %d: %d iterations, %.0f ns/op", i, run, r.N, ns)
			means[i] += ns / gateRuns
		}
	}
	return means
}

// checkOverhead fails t when instrumented costs more than the overhead
// budget over bare.
func checkOverhead(t *testing.T, what string, bare, instrumented float64) {
	t.Helper()
	pct := (instrumented - bare) / bare * 100
	t.Logf("%s overhead: %.2f%% (bare %.0f ns/op, instrumented %.0f ns/op; budget %.0f%%)",
		what, pct, bare, instrumented, overheadBudgetPct)
	if pct > overheadBudgetPct {
		t.Errorf("%s overhead %.2f%% exceeds the %.0f%% budget", what, pct, overheadBudgetPct)
	}
}

// TestTelemetryOverheadGate holds the instrumented reference run within
// the overhead budget of the bare one.
func TestTelemetryOverheadGate(t *testing.T) {
	m := armMeans(t, BenchmarkReferenceRun, BenchmarkReferenceRunInstrumented)
	checkOverhead(t, "telemetry", m[0], m[1])
}

// TestControlOverheadGate holds the instrumented closed-loop run within
// the overhead budget of the bare closed-loop run.
func TestControlOverheadGate(t *testing.T) {
	m := armMeans(t, BenchmarkControlledRun, BenchmarkControlledRunInstrumented)
	checkOverhead(t, "control instrumentation", m[0], m[1])
}

// TestShardedScaleGate holds the sharded engine to its two scale
// claims: a 10,080-host winter finishes faster than the 19-host
// reference run, and per-shard telemetry stays within the overhead
// budget.
func TestShardedScaleGate(t *testing.T) {
	m := armMeans(t, BenchmarkReferenceRun, BenchmarkShardedFleet10k, BenchmarkShardedFleet10kInstrumented)
	ref, big := m[0], m[1]
	t.Logf("10k-host winter: %.0f ms vs 19-host reference %.0f ms (%.1fx headroom)", big/1e6, ref/1e6, ref/big)
	if big >= ref {
		t.Errorf("10k-host sharded winter (%.0f ns/op) is not faster than the 19-host reference run (%.0f ns/op)", big, ref)
	}
	checkOverhead(t, "shard telemetry", big, m[2])
}
