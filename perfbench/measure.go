package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// minOps is the fewest measured operations a phase records, however long
// they take: medians and replay checks need at least this many.
const minOps = 3

// phase is one measured stretch of a workload: untraced (tr == nil) or
// traced. Workload bodies record into it; main turns it into metrics.
type phase struct {
	workload string
	seed     string
	budget   time.Duration
	tr       *tracer
	// layerRun is set on both halves of a --trace 1 run: the untraced
	// half then measures the layer figures that must stay outside the
	// CPU profile.
	layerRun bool
	// shared holds reference digests across the phases of one process,
	// so the traced half replays against the untraced half's outputs.
	shared map[string]string

	setup []float64 // set-up durations, seconds
	ops   []float64 // operation latencies, seconds
	// cpu is CPU time per operation, seconds: the process's across all
	// threads (simulation workloads), or the serving thread's in the
	// handler (ops-serve). The kernel leaves time stolen by the hypervisor
	// out of it, so neighbour load on a shared host moves it less than ops.
	cpu   []float64
	alloc []float64 // heap bytes allocated per operation (or per timed phase)
	// mem samples the memory the Go runtime holds — mapped and not
	// returned to the OS — while an operation runs; peaks holds each
	// recorded operation's peak, bytes. The run reports the largest:
	// garbage collection timing moves one operation's peak by a third.
	// The process's resident set cannot stand in for it: pages returned
	// with MADV_FREE stay resident until the kernel needs them.
	mem   memWatch
	peaks []float64
	// faults is the page faults the process took during each operation.
	faults []float64
	// calWall and calCPU are the calibration kernel's pass times,
	// seconds (calibrate.go).
	cal             *calibrator
	calWall, calCPU []float64
	// units is how many operations per-layer totals are divided by.
	units  int
	layers map[string]float64

	attempted, failed int
	checks            []check
	notes             []string
}

// check is one named output check.
type check struct {
	name   string
	ok     bool
	detail string
}

func newPhase(workload, seed string, budget time.Duration, tr *tracer, shared map[string]string) *phase {
	return &phase{workload: workload, seed: seed, budget: budget, tr: tr, shared: shared, layers: map[string]float64{}}
}

// traced reports whether this phase records spans and layer counts.
func (p *phase) traced() bool { return p.tr != nil }

// check records one output check; a failed check also fails the run.
func (p *phase) check(name string, ok bool, detail string) bool {
	p.checks = append(p.checks, check{name, ok, detail})
	return ok
}

// attempt counts one operation and whether it failed.
func (p *phase) attempt(failed bool) {
	p.attempted++
	if failed {
		p.failed++
	}
}

// replay checks that key's value equals the first value recorded under it
// in this process, recording it if it is the first.
func (p *phase) replay(key, got string) bool {
	want, ok := p.shared[key]
	if !ok {
		p.shared[key] = got
		return true
	}
	return p.check(key+" replay-identical", got == want, fmt.Sprintf("got %s, first run %s", got, want))
}

// note adds one human-readable line to the run's output.
func (p *phase) note(format string, args ...any) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

func (p *phase) failedChecks() []check {
	var out []check
	for _, c := range p.checks {
		if !c.ok {
			out = append(out, c)
		}
	}
	return out
}

// printChecks prints every distinct check once with its pass count.
func (p *phase) printChecks() {
	type tally struct {
		pass, fail int
		detail     string
	}
	order := []string{}
	byName := map[string]*tally{}
	for _, c := range p.checks {
		t := byName[c.name]
		if t == nil {
			t = &tally{}
			byName[c.name] = t
			order = append(order, c.name)
		}
		if c.ok {
			t.pass++
		} else {
			t.fail++
			t.detail = c.detail
		}
	}
	for _, n := range order {
		t := byName[n]
		if t.fail == 0 {
			fmt.Printf("  check %-44s ok (%d)\n", n, t.pass)
		} else {
			fmt.Printf("  check %-44s FAILED %d of %d: %s\n", n, t.fail, t.fail+t.pass, t.detail)
		}
	}
}

func (p *phase) printNotes() {
	for _, n := range p.notes {
		fmt.Println("  " + n)
	}
}

// result starts the final JSON object from the phase's accounting.
func (p *phase) result() result {
	return result{
		Correct:   p.failed == 0 && len(p.failedChecks()) == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   map[string]metric{},
	}
}

// median returns the middle value (mean of the two middle values for an
// even count), 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// memSnap is the part of runtime.MemStats the benchmark reads.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// since returns the allocation, GC-cycle and GC-pause deltas from m0.
func (m0 memSnap) since() (allocBytes, gcCycles, pauseMs float64) {
	m1 := readMem()
	return float64(m1.totalAlloc - m0.totalAlloc), float64(m1.numGC - m0.numGC), float64(m1.pauseNs-m0.pauseNs) / 1e6
}

// processCPU returns the CPU time every thread of the process has used
// so far.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU returns the CPU time the calling OS thread has used so far,
// including its current time slice. The caller locks its goroutine to
// the thread around the interval it measures.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

// pageFaults returns the minor and major page faults the process has
// taken so far.
func pageFaults() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Minflt + ru.Majflt)
}

// Linux's CPU-time clock ids, which the syscall package does not name.
// getrusage is no substitute for a thread: it reports a running thread's
// time only up to its last scheduler tick.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// memWatch records the most memory the Go runtime holds while one
// operation runs, sampled every memEvery. Output checks run outside it
// and are followed by settle, so a check's memory (a 20,000-host results
// archive is larger than the run that made it) never counts as the
// operation's.
type memWatch struct {
	peak       atomic.Int64
	quit, done chan struct{}
}

const memEvery = 5 * time.Millisecond

// start begins sampling one operation. Only the phase's own goroutine
// calls start and stop.
func (w *memWatch) start() {
	if w.quit != nil {
		return
	}
	w.peak.Store(0)
	w.quit, w.done = make(chan struct{}), make(chan struct{})
	go w.run(w.quit, w.done)
}

// stop ends sampling, waits for the sampler to exit and returns the
// operation's peak held memory in bytes.
func (w *memWatch) stop() float64 {
	if w.quit == nil {
		return 0
	}
	close(w.quit)
	<-w.done
	w.quit = nil
	return float64(w.peak.Load())
}

func (w *memWatch) run(quit, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(memEvery)
	defer tick.Stop()
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	for {
		metrics.Read(samples)
		if v := int64(samples[0].Value.Uint64() - samples[1].Value.Uint64()); v > w.peak.Load() {
			w.peak.Store(v)
		}
		select {
		case <-quit:
			return
		case <-tick.C:
		}
	}
}

// settle collects garbage and returns freed memory to the OS, so the
// next operation starts from the same state whatever ran before it.
// The pages stay mapped (freedPagesSetting), so the next operation
// reuses them without faulting.
// The traced half skips it: its forced collections would show in the
// profile as the program's GC time.
func settle() { debug.FreeOSMemory() }

// tracer keeps spans in memory and writes them out once, at the end, as
// Chrome trace-event JSON (load it in chrome://tracing or Perfetto). A nil
// tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int
	spans []span
}

// span is one timed call into a layer. Parent is the enclosing span's id,
// 0 at the top.
type span struct {
	name       string
	id, parent int
	start, end time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span; finish it with end.
func (t *tracer) begin(name string, parent int) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return span{name: name, id: id, parent: parent, start: time.Now()}
}

// end closes s and returns its duration.
func (t *tracer) end(s span) time.Duration {
	if t == nil {
		return 0
	}
	s.end = time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.end.Sub(s.start)
}

// add records an already-timed span.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{name: name, id: t.next, parent: parent, start: start, end: end})
	t.mu.Unlock()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations, in seconds, of every span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end.Sub(s.start).Seconds())
		}
	}
	return out
}

// writeChrome writes the spans as complete ("X") trace events. Each
// top-level span gets its own track, and children share their root's.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	parent := make(map[int]int, len(t.spans))
	for _, s := range t.spans {
		parent[s.id] = s.parent
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		root := s.id
		for parent[root] != 0 {
			root = parent[root]
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: root,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
