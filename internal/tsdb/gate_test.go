//go:build benchgate

package tsdb

import "testing"

// TestDecodeNsPerSampleGate holds block decoding to 50 ns per sample,
// averaged over three testing.Benchmark runs of
// BenchmarkDecodeNsPerSample. It is a wall-clock gate, so it runs only
// with the benchgate build tag:
//
//	go test -tags benchgate -run Gate -v ./internal/tsdb
//
// (add -p 1 when naming more packages, so none is timed under another's
// load).
func TestDecodeNsPerSampleGate(t *testing.T) {
	const runs, budget = 3, 50.0
	mean := 0.0
	for run := 1; run <= runs; run++ {
		r := testing.Benchmark(BenchmarkDecodeNsPerSample)
		ns, ok := r.Extra["ns/sample"]
		if r.N == 0 || !ok {
			t.Fatalf("run %d: the benchmark failed or reported no ns/sample", run)
		}
		t.Logf("run %d: %d iterations, %.2f ns/sample", run, r.N, ns)
		mean += ns / runs
	}
	t.Logf("decode %.2f ns/sample (budget %.0f)", mean, budget)
	if mean > budget {
		t.Errorf("decode %.2f ns/sample exceeds the %.0f ns/sample budget", mean, budget)
	}
}
