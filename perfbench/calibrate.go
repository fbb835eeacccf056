package main

import (
	"bytes"
	"crypto/md5"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The benchmark runs on virtual machines that share a host. Neighbour
// load on the host can slow every instruction of a run by half or more
// for minutes at a time (a busy sibling hyperthread, contended caches),
// and the guest sees that as CPU time of its own, so neither wall time
// nor CPU time of a run can tell it from a slower program. The benchmark
// therefore times a fixed calibration kernel beside the operations, in
// the same process, and reports every end-to-end time at the reference
// speed: measured time × calibRef / median kernel time. The kernel
// depends on no frostlab code and allocates nothing, so a change to the
// program moves the operations and not the kernel.
//
// Neighbour load slows cache-bound work more than arithmetic: on a
// 2-vCPU Xeon VM, map lookups and a pointer chase through 256 KiB ran
// 1.7–1.9 times slower, a sort 1.5 times, md5 and exp/sin 1.25–1.3
// times, and the engine runs 1.5–2.3 times; json.Indent's time followed
// the dashboard's series reads closer than any other part. Most of a
// kernel pass is therefore map lookups, the pointer chase and
// json.Indent.

// calibRef is the pass time at which scaled times are reported, in wall
// time and in the thread's CPU time. It was fitted on a 2-vCPU Intel
// Xeon VM (Go 1.24.0): with it, ten runs of each workload on the loaded
// host matched ten runs on the quiet host in geometric mean over the
// four workloads.
const (
	calibRefWall = 4 * time.Millisecond
	calibRefCPU  = 4 * time.Millisecond
)

// calibPasses is how many kernel passes one calibration sample makes.
const calibPasses = 3

// calibrator holds the kernel's inputs, built once from a fixed seed.
type calibrator struct {
	text    []byte   // hashed with md5
	cycle   []uint32 // one random cycle through 256 KiB of indices
	keys    []uint64 // looked up in table
	table   map[uint64]uint64
	floats  []float64 // sorted through scratch
	scratch []float64
	doc     []byte // a compact JSON series window, indented into out
	out     bytes.Buffer
	sink    uint64
}

func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(20100326))
	c := &calibrator{
		text:    make([]byte, 64<<10),
		cycle:   make([]uint32, 64<<10),
		keys:    make([]uint64, 16<<10),
		table:   make(map[uint64]uint64, 16<<10),
		floats:  make([]float64, 8<<10),
		scratch: make([]float64, 8<<10),
	}
	r.Read(c.text)
	perm := r.Perm(len(c.cycle))
	for i, p := range perm {
		c.cycle[p] = uint32(perm[(i+1)%len(perm)])
	}
	for i := range c.keys {
		c.keys[i] = r.Uint64()
		c.table[c.keys[i]] = uint64(i)
	}
	for i := range c.floats {
		c.floats[i] = r.NormFloat64()
	}
	// A week of 20-minute points, the shape of a dashboard series window.
	type point struct {
		At    time.Time `json:"at"`
		Value float64   `json:"value"`
	}
	points := make([]point, 7*72)
	for i := range points {
		points[i] = point{time.Unix(1269561600+int64(i)*1200, 0).UTC(), math.Round(r.NormFloat64()*100) / 10}
	}
	c.doc, _ = json.Marshal(points) // a slice of plain structs always marshals
	return c
}

// pass runs the kernel once: map lookups, a pointer chase that misses
// the first-level cache, a sort, hashing and transcendental arithmetic,
// the kinds of work the engines and the serving plane spend their time
// on.
func (c *calibrator) pass() {
	var acc uint64
	sum := md5.Sum(c.text)
	acc += uint64(sum[0])
	j := uint32(0)
	for i := 0; i < 150_000; i++ {
		j = c.cycle[j]
	}
	acc += uint64(j)
	for n := 0; n < 12; n++ {
		for _, k := range c.keys {
			acc += c.table[k^uint64(n&1)]
		}
	}
	x := 0.5
	for i := 0; i < 5_000; i++ {
		x = math.Exp(-x) + math.Sin(x)*0.5
	}
	acc += uint64(x * 1e6)
	copy(c.scratch, c.floats)
	sort.Float64s(c.scratch)
	acc += uint64(c.scratch[len(c.scratch)/2] * 1e6)
	for i := 0; i < 4; i++ {
		c.out.Reset()
		_ = json.Indent(&c.out, c.doc, "", " ") // c.doc is valid JSON
		acc += uint64(c.out.Len())
	}
	c.sink += acc
}

// calibrate times n kernel passes on the calling goroutine's thread and
// records their wall and CPU times. Run it where no other work of the
// benchmark's runs, so the passes see the machine and nothing else. An
// untimed pass first brings the kernel's inputs back into the caches,
// whatever the operation before it left there.
func (p *phase) calibrate(n int) {
	if p.cal == nil {
		p.cal = newCalibrator()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p.cal.pass()
	for i := 0; i < n; i++ {
		c0, t0 := threadCPU(), time.Now()
		p.cal.pass()
		p.calWall = append(p.calWall, time.Since(t0).Seconds())
		p.calCPU = append(p.calCPU, (threadCPU() - c0).Seconds())
	}
}

// calSampler times one kernel pass every period on its own goroutine,
// beside work that must not pause for whole calibration samples.
type calSampler struct {
	quit chan struct{}
	done chan struct{}
}

// startCalibration starts sampling into p; stop ends it. The phase's own
// goroutine must leave p's calibration fields alone until then.
func (p *phase) startCalibration(period time.Duration) *calSampler {
	s := &calSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				p.calibrate(1)
			}
		}
	}()
	return s
}

// stop ends sampling and waits for the sampler to exit. A nil sampler
// does nothing.
func (s *calSampler) stop() {
	if s == nil {
		return
	}
	close(s.quit)
	<-s.done
}

// slowdowns returns how much slower than the reference machine the
// phase ran, in wall time and in CPU time: the median calibration time
// over the reference time. Both are 1 when no calibration was recorded.
func (p *phase) slowdowns() (wall, cpu float64) {
	wall, cpu = 1, 1
	if len(p.calWall) > 0 {
		wall = median(p.calWall) / calibRefWall.Seconds()
		cpu = median(p.calCPU) / calibRefCPU.Seconds()
	}
	return wall, cpu
}
