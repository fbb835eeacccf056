package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// TestStalledHandlerMakesLaterRequestsLate checks due-instant timing: one
// 100 ms stall in a single-worker plane must show as latency on every
// request queued behind it, even though each of those is served at once.
func TestStalledHandlerMakesLaterRequestsLate(t *testing.T) {
	const stall = 100 * time.Millisecond
	var first atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	})
	var arr []arrival
	for i := 0; i < 20; i++ {
		arr = append(arr, arrival{at: time.Duration(i) * 5 * time.Millisecond, route: routeMetrics, path: "/x"})
	}
	res := runStep(h, stepConfig{rate: 200, arrivals: arr, workers: 1, drain: time.Second, feed: 64})
	if res.ok != len(arr) {
		t.Fatalf("%d of %d requests ok", res.ok, len(arr))
	}
	// Requests due at 5, 10, …, 95 ms wait for the stall to end near
	// 100 ms: their due-instant latencies run from about 95 ms down to
	// 5 ms, so the median is about 50 ms. Service time alone would put
	// every one of them near zero.
	if got := res.quantile(0.5); got < 0.03 {
		t.Errorf("median latency %.1f ms, want the stall to show (≥ 30 ms)", got*1e3)
	}
	if got := quantile(res.handler[routeMetrics], 0.5); got > 0.01 {
		t.Errorf("median handler time %.1f ms, want the queued requests served at once", got*1e3)
	}
	if res.unaccounted() != 0 {
		t.Errorf("%d arrivals unaccounted", res.unaccounted())
	}
}

// TestArrivalAccounting drives every outcome class — ok, refused,
// errored, dropped at a full feed, dropped after the drain cut-off — and
// checks arrivals = ok + rejected + errors + dropped.
func TestArrivalAccounting(t *testing.T) {
	var n atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		switch n.Add(1) % 3 {
		case 0:
			w.WriteHeader(http.StatusServiceUnavailable)
		case 1:
			w.WriteHeader(http.StatusInternalServerError)
		default:
			w.Write([]byte("ok"))
		}
	})
	var arr []arrival
	for i := 0; i < 400; i++ {
		arr = append(arr, arrival{at: time.Duration(i) * 100 * time.Microsecond, route: routeAlerts, path: "/y"})
	}
	res := runStep(h, stepConfig{rate: 10000, arrivals: arr, workers: 2, drain: 5 * time.Millisecond, feed: 4})
	if res.arrivals != len(arr) {
		t.Fatalf("arrivals %d, want %d", res.arrivals, len(arr))
	}
	if res.unaccounted() != 0 {
		t.Errorf("unaccounted %d: %d ok, %d rejected, %d errors, %d dropped",
			res.unaccounted(), res.ok, res.rejected, res.errors, res.drops)
	}
	if res.ok == 0 || res.rejected == 0 || res.errors == 0 || res.drops == 0 {
		t.Errorf("want every class seen: %d ok, %d rejected, %d errors, %d dropped",
			res.ok, res.rejected, res.errors, res.drops)
	}
	if res.sustainable(time.Second) {
		t.Error("a step with failed requests must not count as sustainable")
	}
}

// step builds a finished step with n latencies of lat seconds.
func step(rate float64, n int, lat float64) *stepResult {
	s := &stepResult{rate: rate, arrivals: n, ok: n}
	for i := 0; i < n; i++ {
		s.latency = append(s.latency, lat)
	}
	return s
}

func TestMaxSustainableLadder(t *testing.T) {
	limit := 50 * time.Millisecond
	failedStep := step(200, 100, 0.001)
	failedStep.ok, failedStep.errors, failedStep.latency = 99, 1, failedStep.latency[:99]
	backlogged := step(400, 100, 0.001)
	backlogged.backlog = 100 // more than 400/s × 50 ms of queued work
	for _, tc := range []struct {
		name  string
		steps []*stepResult
		want  float64
	}{
		{"all pass", []*stepResult{step(100, 100, 0.001), step(200, 100, 0.002), step(400, 100, 0.004)}, 400},
		{"p99 over the limit", []*stepResult{step(100, 100, 0.001), step(200, 100, 0.002), step(400, 100, 0.2)}, 200},
		{"first step fails", []*stepResult{step(100, 100, 0.2), step(200, 100, 0.001)}, 0},
		{"a failed request breaks the run", []*stepResult{step(100, 100, 0.001), failedStep, step(400, 100, 0.001)}, 100},
		{"backlog", []*stepResult{step(100, 100, 0.001), step(200, 100, 0.001), backlogged}, 200},
		{"empty step", []*stepResult{step(100, 0, 0)}, 0},
	} {
		if got := maxSustainable(tc.steps, limit); got != tc.want {
			t.Errorf("%s: max sustainable %v, want %v", tc.name, got, tc.want)
		}
	}
	// One failure in a hundred reaches the 99th percentile: it misses
	// the limit however fast the others were.
	if q := failedStep.quantile(0.99); q < 1 {
		t.Errorf("failed request should count as missing the limit, p99 = %v", q)
	}
}

func TestModuleAttribution(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"crypto/md5.block", "crypto/md5.(*digest).Write", "frostlab/internal/delta.NewSignature",
			"frostlab/internal/monitor.(*Collector).collectHost", "frostlab/internal/core.(*Experiment).monitorRound"}, "delta"},
		{[]string{"encoding/json.appendIndent", "frostlab/internal/dash.(*Server).handleSeriesWindow",
			"net/http.(*ServeMux).ServeHTTP", "frostlab/internal/dash.(*scrapeCache).wrap.func1", "main.runStep.func1"}, "dash"},
		{[]string{"runtime.mallocgc", "frostlab/internal/workload.CompressFBZ"}, "workload"},
		{[]string{"frostlab/internal/core.New.func1"}, "core"},
		{[]string{"net/http.NewRequestWithContext", "main.runStep.func1", "runtime.goexit"}, benchBucket},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, gcBucket},
		{[]string{"runtime.futex", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, schedBucket},
		{[]string{"runtime.unlock2", "runtime.unlock", "runtime.goschedImpl", "runtime.gosched_m", "runtime.mcall"}, schedBucket},
		{[]string{"runtime.nanotime", "runtime.sysmon"}, otherBucket},
		{nil, otherBucket},
	} {
		if got := moduleOf(tc.frames); got != tc.want {
			t.Errorf("moduleOf(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return p.bytes(num, body)
}

// TestParseProfile decodes a hand-built gzipped profile with an inlined
// frame, packed and unpacked repeated fields and a check label, and
// attributes it.
func TestParseProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"frostlab/internal/tsdb.(*Iter).readValue", "frostlab/internal/tsdb.(*Iter).Next", "main.opsServe",
		checkLabel, "check"}
	prof := &pb{}
	prof.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b)
	prof.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b)
	// Sample 1: tsdb stack, packed fields, 20 ms.
	prof.bytes(2, (&pb{}).packed(1, 1, 2).packed(2, 2, 20e6).b)
	// Sample 2: benchmark-only stack, unpacked fields, 10 ms.
	prof.bytes(2, (&pb{}).varint(1, 2).varint(2, 1).varint(2, 10e6).b)
	// Sample 3: the tsdb stack again, labelled as check work, 40 ms.
	prof.bytes(2, (&pb{}).packed(1, 1, 2).packed(2, 4, 40e6).bytes(3, (&pb{}).varint(1, 8).varint(2, 9).b).b)
	// Location 1 holds readValue inlined into Next; location 2 is main.
	prof.bytes(4, (&pb{}).varint(1, 1).bytes(4, (&pb{}).varint(1, 1).b).bytes(4, (&pb{}).varint(1, 2).b).b)
	prof.bytes(4, (&pb{}).varint(1, 2).bytes(4, (&pb{}).varint(1, 3).b).b)
	for id, name := range []uint64{5, 6, 7} {
		prof.bytes(5, (&pb{}).varint(1, uint64(id+1)).varint(2, name).b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.varint(12, 10e6)
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(prof.b)
	zw.Close()

	p, err := parseProfile(z.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != 3 {
		t.Fatalf("%d samples, want 3", len(p.samples))
	}
	if p.samples[0].check || !p.samples[2].check {
		t.Errorf("check labels: %v, %v; want only the third sample marked", p.samples[0].check, p.samples[2].check)
	}
	want := []string{"frostlab/internal/tsdb.(*Iter).readValue", "frostlab/internal/tsdb.(*Iter).Next", "main.opsServe"}
	if got := p.samples[0].frames; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("frames %v, want %v", got, want)
	}
	shares := p.attribute()
	if shares["tsdb"] != 0.02 || shares[benchBucket] != 0.01 {
		t.Errorf("attribution %v, want tsdb 0.02 s and bench 0.01 s", shares)
	}
}

// TestRenderWindowMatchesDash holds the ops-serve body check's reference
// rendering to the dashboard's own response for one window.
func TestRenderWindowMatchesDash(t *testing.T) {
	pl, err := newPlane("render-test")
	if err != nil {
		t.Fatal(err)
	}
	defer pl.close()
	arr := schedule("render-test", 0, 2000, time.Second, pl.hosts)
	var path string
	for _, a := range arr {
		if a.route == routeSeriesWindow {
			path = a.path
			break
		}
	}
	if path == "" {
		t.Fatal("schedule drew no series-window request")
	}
	rec := httptest.NewRecorder()
	pl.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d", path, rec.Code)
	}
	want, err := renderWindow(pl.samples.Store(), path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("%s: dashboard body (%d bytes) differs from direct rendering (%d bytes)", path, rec.Body.Len(), len(want))
	}
	if n := bytes.Count(want, []byte(`"at"`)); n != int(serveWindow/(20*time.Minute))+1 {
		t.Errorf("window holds %d points, want %d", n, int(serveWindow/(20*time.Minute))+1)
	}
}

// TestCalibrationKernel checks that the kernel allocates nothing, so the
// program's heap and GC cannot move its time, and that a phase whose
// kernel ran at twice the reference time reports half its times.
func TestCalibrationKernel(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(3, c.pass); n != 0 && !raceEnabled {
		t.Errorf("kernel pass allocates %.0f times, want 0", n)
	}
	p := newPhase("x", "1", 0, nil, nil)
	p.calibrate(2)
	if len(p.calWall) != 2 || len(p.calCPU) != 2 || p.calWall[0] <= 0 {
		t.Fatalf("calibrate(2) recorded wall %v, cpu %v", p.calWall, p.calCPU)
	}
	p.calWall = []float64{2 * calibRefWall.Seconds()}
	p.calCPU = []float64{3 * calibRefCPU.Seconds()}
	if wall, cpu := p.slowdowns(); wall != 2 || cpu != 3 {
		t.Errorf("slowdowns = %v, %v, want 2, 3", wall, cpu)
	}
	if wall, cpu := newPhase("x", "1", 0, nil, nil).slowdowns(); wall != 1 || cpu != 1 {
		t.Errorf("slowdowns without calibration = %v, %v, want 1, 1", wall, cpu)
	}
}

func TestSeedString(t *testing.T) {
	for arg, want := range map[string]string{"": "winter0910-r115", "115": "winter0910-r115", "7": "winter0910-r7"} {
		if got, err := seedString(arg); err != nil || got != want {
			t.Errorf("seedString(%q) = %q, %v, want %q", arg, got, err, want)
		}
	}
	for _, arg := range []string{"custom", "-1", "1.5"} {
		if got, err := seedString(arg); err == nil {
			t.Errorf("seedString(%q) = %q, want an error", arg, got)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// lists equal to what the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloadOrder[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, e := range spec.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %v in BENCHMARK.json, %v here", i, e, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, l := range spec.PerLayer {
		if l.Name != perLayer[i].name || l.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %v in BENCHMARK.json, %v here", i, l, perLayer[i])
		}
	}
}
