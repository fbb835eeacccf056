// Command perfbench is frostlab's benchmark: one command runs a named
// workload against the public engine and serving APIs, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through the launcher that builds this
// package into .bench_build/):
//
//	python3 perfbench/run.py --workload winter-batch --seed 115 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// splits the time in two halves: an untraced half, then a traced half
// that records a CPU profile and spans around the public calls, and
// reports the per-layer metrics plus the tracing overhead (traced against
// untraced operation latency). --workload all runs every workload in its
// own process and prints one table. README.md lists the workloads, the
// metrics and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"frostlab/internal/core"
)

// workloads maps each workload name to its body. A body runs operations
// until the phase budget is spent and records timings, counts and checks
// on the phase.
var workloads = map[string]func(*phase) error{
	"winter-batch":     winterBatch,
	"winter-monitored": winterMonitored,
	"fleet":            fleetWorkload,
	"ops-serve":        opsServe,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"winter-batch", "winter-monitored", "fleet", "ops-serve"}

func main() {
	keepFreedPages()
	os.Exit(run(os.Args[1:]))
}

// freedPagesSetting makes the Go runtime return unused heap with
// MADV_FREE instead of MADV_DONTNEED: the pages stay mapped until the
// kernel runs short of memory, so the next operation reuses them without
// faulting. With MADV_DONTNEED a winter-batch run faults about 10,000
// pages of its heap back in. In a virtual machine whose balloon reports
// free pages to the host, the host serves each of those faults at a cost
// set by its own memory load, and the benchmark would time that load
// along with the program, in CPU time as well as wall time.
const freedPagesSetting = "madvdontneed=0"

// keepFreedPages re-executes the benchmark with freedPagesSetting added
// to GODEBUG, which the runtime reads only at start. The exec replaces
// this process, so no child is left behind.
func keepFreedPages() {
	cur := os.Getenv("GODEBUG")
	if strings.HasSuffix(cur, freedPagesSetting) {
		return
	}
	self, err := os.Executable()
	if err == nil {
		if cur != "" {
			cur += ","
		}
		os.Setenv("GODEBUG", cur+freedPagesSetting)
		err = syscall.Exec(self, os.Args, os.Environ())
	}
	fmt.Fprintf(os.Stderr, "perfbench: cannot re-execute with GODEBUG=%s (%v); freed heap pages will fault back in\n",
		freedPagesSetting, err)
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: winter-batch, winter-monitored, fleet, ops-serve or all")
	seedArg := fs.String("seed", "", "input seed: a number N selects winter0910-rN (115 is the reference seed), default "+core.ReferenceSeed)
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced half")
	artifacts := fs.String("artifacts", ".bench_build/traces", "directory for the traced run's CPU profile and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	seed, err := seedString(*seedArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if *name == "all" {
		return runAll(*seedArg, *seconds, *trace, *artifacts)
	}
	body, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v or all)\n", *name, workloadOrder)
		return 2
	}
	fmt.Printf("perfbench %s: seed %q, %d s, trace %d, %d CPUs (GOMAXPROCS %d), %s\n",
		*name, seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	budget := time.Duration(*seconds) * time.Second
	shared := map[string]string{}
	var out result
	if *trace == 0 {
		out, err = measureEndToEnd(*name, body, seed, budget, shared)
	} else {
		out, err = measureLayers(*name, body, seed, budget, shared, *artifacts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		return 1
	}
	out.print()
	if !out.Correct {
		return 1
	}
	return 0
}

// seedString maps the --seed argument onto an engine seed. Numbers name
// members of the reference seed family, so --seed 115 is the paper's
// reference sample path; an empty argument selects it too.
func seedString(arg string) (string, error) {
	if arg == "" {
		return core.ReferenceSeed, nil
	}
	n, err := strconv.ParseUint(arg, 10, 32)
	if err != nil {
		return "", fmt.Errorf("--seed %q is not a number", arg)
	}
	return "winter0910-r" + strconv.FormatUint(n, 10), nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes every metric as a human-readable line, then the JSON line.
func (r result) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  %-32s %14.6g ratio (%d failed of %d attempted)\n", "error_rate", errRate, r.Failed, r.Attempted)
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats and strings always marshals
	}
	fmt.Println(string(b))
}

// endToEnd lists the metrics every workload reports with --trace 0; they
// must match BENCHMARK.json's end_to_end list.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms", "ms"},
	{"alloc_mb", "MB"},
	{"peak_mem_mb", "MB"},
}

// measureEndToEnd runs one untraced phase over the whole budget. Its
// times are reported at the reference machine's speed (calibrate.go).
func measureEndToEnd(name string, body func(*phase) error, seed string, budget time.Duration, shared map[string]string) (result, error) {
	p := newPhase(name, seed, budget, nil, shared)
	if err := body(p); err != nil {
		return result{}, err
	}
	p.printChecks()
	p.printNotes()
	slowWall, slowCPU := p.slowdowns()
	fmt.Printf("  measured: set-up %.6g s, op p50 %.6g ms, cpu %.6g ms; calibration %.4g ms wall, %.4g ms cpu over %d passes = %.4fx and %.4fx the reference\n",
		median(p.setup), median(p.ops)*1e3, median(p.cpu)*1e3, median(p.calWall)*1e3, median(p.calCPU)*1e3,
		len(p.calWall), slowWall, slowCPU)
	out := p.result()
	values := map[string]float64{
		"setup_s":     median(p.setup) / slowWall,
		"op_p50_ms":   median(p.ops) * 1e3 / slowWall,
		"cpu_ms":      median(p.cpu) * 1e3 / slowCPU,
		"alloc_mb":    median(p.alloc) / (1 << 20),
		"peak_mem_mb": quantile(p.peaks, 1) / (1 << 20),
	}
	for _, e := range endToEnd {
		out.Metrics[e.name] = metric{values[e.name], e.unit}
	}
	return out, nil
}

// measureLayers runs an untraced half, then a traced half with a CPU
// profile and spans, and reports the per-layer metrics of the traced half.
func measureLayers(name string, body func(*phase) error, seed string, budget time.Duration, shared map[string]string, artifacts string) (result, error) {
	plain := newPhase(name, seed, budget/2, nil, shared)
	plain.layerRun = true
	if err := body(plain); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(artifacts, 0o755); err != nil {
		return result{}, fmt.Errorf("artifacts: %w", err)
	}
	base := fmt.Sprintf("%s/%s-%s", artifacts, name, sanitize(seed))
	pf, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return result{}, fmt.Errorf("artifacts: %w", err)
	}
	defer pf.Close()
	tr := newTracer()
	traced := newPhase(name, seed, budget/2, tr, shared)
	traced.layerRun = true
	if err := pprof.StartCPUProfile(pf); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	berr := body(traced)
	pprof.StopCPUProfile()
	if berr != nil {
		return result{}, berr
	}
	if err := pf.Close(); err != nil {
		return result{}, fmt.Errorf("artifacts: %w", err)
	}
	if err := tr.writeChrome(base + ".trace.json"); err != nil {
		return result{}, fmt.Errorf("artifacts: %w", err)
	}
	prof, err := readProfileFile(base + ".cpu.pprof")
	if err != nil {
		return result{}, err
	}

	fmt.Println("  untraced half:")
	plain.printChecks()
	plain.printNotes()
	fmt.Println("  traced half:")
	traced.printChecks()
	traced.printNotes()
	fmt.Printf("  artifacts: %s.cpu.pprof, %s.trace.json (%d spans)\n", base, base, tr.len())

	out := traced.result()
	out.Attempted += plain.attempted
	out.Failed += plain.failed
	out.Correct = out.Correct && plain.failed == 0 && len(plain.failedChecks()) == 0

	units := float64(traced.units)
	if units < 1 {
		units = 1
	}
	// Layer figures measured outside the profile (the untraced half)
	// first, then the traced half's.
	layers := map[string]float64{}
	for k, v := range plain.layers {
		layers[k] = v
	}
	for k, v := range traced.layers {
		layers[k] = v
	}
	shares := prof.attribute()
	total := 0.0
	for _, s := range shares {
		total += s
	}
	for _, m := range profiledModules {
		layers[m+".self_s"] = shares[m] / units
	}
	layers["bench.self_s"] = shares[benchBucket] / units
	layers["runtime.gc_s"] = shares[gcBucket] / units
	layers["runtime.sched_s"] = shares[schedBucket] / units
	layers["other.self_s"] = shares[otherBucket] / units
	layers["profile.cpu_s"] = total / units
	if total > 0 {
		layers["profile.other_share"] = shares[otherBucket] / total
	}
	if a, b := median(plain.ops), median(traced.ops); a > 0 {
		layers["trace.overhead_ratio"] = b / a
	}
	layers["bench.ops"] = float64(len(traced.ops))
	// Page faults are counted in the untraced half, whose operations the
	// end-to-end metrics time.
	layers["os.page_faults"] = median(plain.faults)
	layers["bench.calib_ms"] = median(plain.calWall) * 1e3
	for _, l := range perLayer {
		out.Metrics[l.name] = metric{layers[l.name], l.unit}
	}
	return out, nil
}

// sanitize keeps a seed usable as a file name.
func sanitize(s string) string {
	b := []byte(s)
	for i, c := range b {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.') {
			b[i] = '_'
		}
	}
	return string(b)
}
