package main

import (
	"crypto/md5"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"frostlab/internal/campaign"
	"frostlab/internal/core"
	"frostlab/internal/econ"
	"frostlab/internal/hardware"
	"frostlab/internal/monitor"
	"frostlab/internal/rules"
	"frostlab/internal/telemetry"
)

// Anchors of the reference seed (core.ReferenceSeed). Other seeds are
// checked for replay identity instead.
const (
	// referenceMD5 is the SaveResults md5 of the classic reference run.
	referenceMD5 = "8e0826989f4f48725cd63e85be20a0da"
	// referenceEconDigest is the default E17 sweep's digest.
	referenceEconDigest = "78230808af470362704333dd269cb66b"
)

const (
	// setupReps is how many extra constructions an untraced phase times
	// before measuring, so setup_s is a median even when few operations
	// fit in the budget.
	setupReps = 15
	// monitoredDays is winter-monitored's horizon. The collection plane's
	// cost grows faster than the horizon; at 7 days one run takes about
	// 1.8 s on a 2-core Xeon, so a 10-second budget still holds several
	// runs.
	monitoredDays = 7
	// fleetTents × fleetHostsPerTent is the fleet workload's synthetic
	// fleet: 20,250 hosts, whose sharded winter takes about as long as the
	// default E17 sweep on 2 cores.
	fleetTents        = 2250
	fleetHostsPerTent = 9
)

// loop runs op until the phase budget is spent and at least minOps
// operations are recorded. An untraced phase first makes one unrecorded
// warm-up call, and times the calibration kernel after every operation;
// the traced half follows it in the same process, warm.
func (p *phase) loop(op func(record bool) error) error {
	if !p.traced() {
		if err := op(false); err != nil {
			p.mem.stop()
			return err
		}
		p.calibrate(calibPasses)
	}
	start := time.Now()
	for n := 0; n < minOps || time.Since(start) < p.budget; n++ {
		if err := op(true); err != nil {
			p.mem.stop()
			return err
		}
		p.units++
		if !p.traced() {
			p.calibrate(calibPasses)
		}
	}
	return nil
}

// resultsMD5 hashes the engine's canonical JSON archive.
func resultsMD5(r *core.Results) (string, error) {
	h := md5.New()
	if err := core.SaveResults(h, r); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// registryValues scrapes reg and returns every sample keyed by its name
// plus labels in the exposition's own form (name{k="v"}).
func registryValues(reg *telemetry.Registry) map[string]float64 {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return nil
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// winterBatch is the classic reference run with monitoring off.
func winterBatch(p *phase) error {
	return classicRuns(p, func() core.Config {
		cfg := core.DefaultConfig(p.seed)
		cfg.MonitorEvery = 0
		return cfg
	})
}

// winterMonitored is the classic engine with §3.5 20-minute collection
// and the default rules evaluated on the simulated clock.
func winterMonitored(p *phase) error {
	return classicRuns(p, func() core.Config {
		cfg := core.DefaultConfig(p.seed)
		cfg.End = cfg.Start.AddDate(0, 0, monitoredDays)
		cfg.MonitorEvery = monitor.CollectionPeriod
		cfg.Rules = rules.Default()
		return cfg
	})
}

// classicRuns measures core.New + Run + SaveResults over fresh engines.
// The operation latency is the Run call alone.
func classicRuns(p *phase, mk func() core.Config) error {
	if !p.traced() {
		p.calibrate(calibPasses)
		for i := 0; i < setupReps; i++ {
			runtime.GC()
			t := time.Now()
			if _, err := core.New(mk()); err != nil {
				return err
			}
			p.setup = append(p.setup, time.Since(t).Seconds())
		}
	}
	var newS, runS, saveS []float64
	var gcCycles, gcPause float64
	var last *core.Results
	var lastExp *core.Experiment
	var lastReg *telemetry.Registry
	err := p.loop(func(record bool) error {
		p.mem.start()
		root := p.tr.begin("op", 0)
		sp := p.tr.begin("core.New", root.id)
		t0 := time.Now()
		exp, err := core.New(mk())
		newD := time.Since(t0)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		var reg *telemetry.Registry
		if p.traced() {
			reg = telemetry.NewRegistry()
			exp.InstrumentTelemetry(reg)
		}
		m0 := readMem()
		sp = p.tr.begin("core.Experiment.Run", root.id)
		f1, c1, t1 := pageFaults(), processCPU(), time.Now()
		r, err := exp.Run()
		runD, runCPU := time.Since(t1), processCPU()-c1
		faults := pageFaults() - f1
		p.tr.end(sp)
		peak := p.mem.stop()
		alloc, gcs, pause := m0.since()
		if err != nil {
			return err
		}
		var ok bool
		var saveD time.Duration
		unprofiled(func() {
			sp := p.tr.begin("core.SaveResults+md5", root.id)
			t2 := time.Now()
			sum, err := resultsMD5(r)
			saveD = time.Since(t2)
			p.tr.end(sp)
			ok = p.check("results archive written", err == nil, fmt.Sprint(err))
			ok = p.replay(p.workload+" results md5", sum) && ok
			if p.seed == core.ReferenceSeed && r.Alerts == nil {
				ok = p.check("results md5 = reference anchor", sum == referenceMD5,
					fmt.Sprintf("got %s, want %s", sum, referenceMD5)) && ok
			}
			if r.Alerts != nil {
				ok = p.replay(p.workload+" rules TimelineDigest", r.Alerts.Digest) && ok
			}
		})
		p.tr.end(root)
		if !p.traced() {
			settle()
		}
		p.attempt(!ok)
		if !record {
			return nil
		}
		p.setup = append(p.setup, newD.Seconds())
		p.ops = append(p.ops, runD.Seconds())
		p.cpu = append(p.cpu, runCPU.Seconds())
		p.faults = append(p.faults, faults)
		p.alloc = append(p.alloc, alloc)
		p.peaks = append(p.peaks, peak)
		newS, runS, saveS = append(newS, newD.Seconds()), append(runS, runD.Seconds()), append(saveS, saveD.Seconds())
		gcCycles += gcs
		gcPause += pause
		last, lastExp, lastReg = r, exp, reg
		return nil
	})
	if err != nil {
		return err
	}
	hours := last.End.Sub(last.Start).Hours()
	hostHours := float64(len(last.Hosts)) * hours
	p.note("simulated: %d hosts × %.0f h = %.0f host-hours per run (%.0f ns/host-hour at the median run)",
		len(last.Hosts), hours, hostHours, median(p.ops)*1e9/hostHours)
	if last.Alerts != nil {
		p.note("monitored: %d rule evaluations, %d host-collections, %d bytes scanned, %d literal; rules digest %s",
			last.Alerts.Evals, last.MonitorRounds, last.MonitorTotalBytes, last.MonitorLiteralBytes, last.Alerts.Digest)
	}
	if p.traced() {
		n := float64(len(runS))
		vals := registryValues(lastReg)
		l := p.layers
		l["core.new_s"], l["core.run_s"], l["core.save_s"] = median(newS), median(runS), median(saveS)
		l["simkernel.events"] = vals["frostlab_sim_events_fired_total"]
		l["core.weather_ticks"] = vals["frostlab_weather_ticks_total"]
		l["core.failure_ticks"] = vals["frostlab_failure_ticks_total"]
		l["workload.cycles"] = vals["frostlab_workload_cycles_total"]
		l["workload.bad_hashes"] = vals["frostlab_workload_bad_hash_total"]
		l["monitor.rounds"] = vals["frostlab_monitor_rounds_total"]
		l["monitor.host_collections"] = vals["frostlab_monitor_host_collections_total"]
		l["sim.host_hours"] = hostHours
		l["delta.bytes_scanned"] = float64(last.MonitorTotalBytes)
		l["delta.literal_ratio"] = ratio(float64(last.MonitorLiteralBytes), float64(last.MonitorTotalBytes))
		if last.Alerts != nil {
			l["rules.evals"] = float64(last.Alerts.Evals)
			l["rules.incidents"] = float64(last.Alerts.IncidentsTotal)
		}
		l["runtime.gc_cycles"], l["runtime.gc_pause_ms"] = gcCycles/n, gcPause/n
	} else if p.layerRun && last.MonitorTotalBytes > 0 {
		// The engine keeps its sample store private; rebuild it from the
		// mirrored logs, outside the profiled half.
		db := monitor.NewSampleDB()
		for id := range last.Hosts {
			m := lastExp.Mirror(id)
			for _, name := range m.Names() {
				db.Ingest(id, name, m.Get(name))
			}
		}
		st := db.Store().Stats()
		p.layers["tsdb.samples"] = float64(st.Samples)
		p.layers["tsdb.bits_per_sample"] = ratio(8*float64(st.CompressedBytes), float64(st.Samples))
	}
	return nil
}

// fleetWorkload runs one sharded synthetic-fleet winter and then the
// default E17 econ sweep; the operation latency is the two run calls.
func fleetWorkload(p *phase) error {
	shards := runtime.GOMAXPROCS(0)
	mk := func(shards int) (*core.ShardedExperiment, error) {
		fleet, err := hardware.SyntheticFleet(fleetTents, fleetHostsPerTent, p.seed)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig(p.seed)
		cfg.Fleet = fleet
		cfg.MonitorEvery = 0
		return core.NewSharded(cfg, shards)
	}
	// The reference archive: the same fleet stepped on one shard.
	const oneShardKey = "fleet one-shard md5"
	if _, ok := p.shared[oneShardKey]; !ok {
		exp, err := mk(1)
		if err != nil {
			return err
		}
		r, err := exp.Run()
		if err != nil {
			return err
		}
		sum, err := resultsMD5(r)
		if err != nil {
			return err
		}
		p.shared[oneShardKey] = sum
		settle()
	}
	if !p.traced() {
		p.calibrate(calibPasses)
		for i := 0; i < setupReps; i++ {
			runtime.GC()
			t := time.Now()
			if _, err := mk(shards); err != nil {
				return err
			}
			p.setup = append(p.setup, time.Since(t).Seconds())
		}
	}

	var newS, shardS, saveS, cellS, spreads []float64
	var gcCycles, gcPause float64
	var hosts, econDays int
	var hostHours float64
	err := p.loop(func(record bool) error {
		p.mem.start()
		root := p.tr.begin("op", 0)
		sp := p.tr.begin("core.NewSharded", root.id)
		t0 := time.Now()
		exp, err := mk(shards)
		newD := time.Since(t0)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		var busy *busySampler
		if p.traced() {
			reg := telemetry.NewRegistry()
			exp.InstrumentTelemetry(reg)
			busy = startBusySampler(reg)
		}
		m0 := readMem()
		f1, c1 := pageFaults(), processCPU()
		sp = p.tr.begin("core.ShardedExperiment.Run", root.id)
		t1 := time.Now()
		r, err := exp.Run()
		shardD := time.Since(t1)
		p.tr.end(sp)
		if busy != nil {
			spreads = append(spreads, busy.stop())
		}
		if err != nil {
			return err
		}

		spec := campaign.DefaultEconSpec(p.seed)
		econSpan := p.tr.begin("campaign.RunEcon", root.id)
		last := time.Now()
		var cells []float64
		spec.Progress = func(done, total int, cell *campaign.EconCell) {
			now := time.Now()
			cells = append(cells, now.Sub(last).Seconds())
			p.tr.add("campaign.econ_cell "+cell.Label, econSpan.id, last, now)
			last = now
		}
		t2 := time.Now()
		sum, err := campaign.RunEcon(spec)
		econD, opCPU := time.Since(t2), processCPU()-c1
		faults := pageFaults() - f1
		p.tr.end(econSpan)
		peak := p.mem.stop()
		alloc, gcs, pause := m0.since()
		if err != nil {
			return err
		}

		var ok, conserved bool
		var saveD time.Duration
		unprofiled(func() {
			sp := p.tr.begin("core.SaveResults+md5", root.id)
			t3 := time.Now()
			archive, err := resultsMD5(r)
			saveD = time.Since(t3)
			p.tr.end(sp)
			want := p.shared[oneShardKey]
			ok = p.check(fmt.Sprintf("sharded md5 at %d shards = at 1 shard", shards), err == nil && archive == want,
				fmt.Sprintf("got %s (%v), one shard %s", archive, err, want))
			digest := sum.Digest()
			ok = p.replay("fleet econ sweep digest", digest) && ok
			if p.seed == core.ReferenceSeed {
				ok = p.check("econ sweep digest = E17 anchor", digest == referenceEconDigest,
					fmt.Sprintf("got %s, want %s", digest, referenceEconDigest)) && ok
			}
			conserved = econConserved(p, sum)
		})
		p.tr.end(root)
		if !p.traced() {
			settle()
		}
		ok = ok && conserved
		p.attempt(!ok)
		if !record {
			return nil
		}
		p.setup = append(p.setup, newD.Seconds())
		p.ops = append(p.ops, (shardD + econD).Seconds())
		p.cpu = append(p.cpu, opCPU.Seconds())
		p.faults = append(p.faults, faults)
		p.alloc = append(p.alloc, alloc)
		p.peaks = append(p.peaks, peak)
		newS, shardS, saveS = append(newS, newD.Seconds()), append(shardS, shardD.Seconds()), append(saveS, saveD.Seconds())
		cellS = append(cellS, cells...)
		gcCycles += gcs
		gcPause += pause
		hosts, econDays = exp.Hosts(), sum.Days
		hostHours = float64(hosts) * r.End.Sub(r.Start).Hours()
		for _, c := range sum.Cells {
			for _, s := range c.Result.Sites {
				hostHours += float64(s.Hosts) * c.Result.End.Sub(c.Result.Start).Hours()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.note("simulated: %d-host sharded winter on %d shards + %d-day E17 sweep = %.0f host-hours per op",
		hosts, shards, econDays, hostHours)
	if p.traced() {
		n := float64(len(shardS))
		l := p.layers
		l["core.new_s"], l["core.save_s"] = median(newS), median(saveS)
		l["core.sharded_run_s"] = median(shardS)
		l["core.shard_busy_spread"] = median(spreads)
		l["campaign.econ_cell_s_p50"] = median(cellS)
		l["campaign.econ_cell_s_max"] = quantile(cellS, 1)
		l["sim.host_hours"] = hostHours
		l["runtime.gc_cycles"], l["runtime.gc_pause_ms"] = gcCycles/n, gcPause/n
	} else if p.layerRun {
		// One econ cell stepped tick by tick (the continental/paired
		// follow-cold cell), outside the profiled half.
		ms, err := core.NewMultiSite(core.DefaultMultiSiteConfig(p.seed + "/econ/continental/paired"))
		if err != nil {
			return err
		}
		var steps []float64
		for {
			t := time.Now()
			more := ms.Step()
			if !more {
				break
			}
			steps = append(steps, time.Since(t).Seconds())
		}
		if _, err := ms.Results(); err != nil {
			return err
		}
		p.layers["core.multisite_step_us_p50"] = quantile(steps, 0.5) * 1e6
		p.layers["core.multisite_step_us_p99"] = quantile(steps, 0.99) * 1e6
	}
	return nil
}

// econConserved re-derives every cell's work-cycle ledger from its
// results and records one check.
func econConserved(p *phase, sum *campaign.EconSummary) bool {
	for i := range sum.Cells {
		fr := sum.Cells[i].Result
		meters := make([]econ.Meter, len(fr.Sites))
		for j := range fr.Sites {
			meters[j] = fr.Sites[j].Meter
		}
		if err := econ.CheckConservation(meters, fr.Demanded, 1e-6*(1+fr.Demanded)); err != nil {
			return p.check("econ conservation on every cell", false, sum.Cells[i].Label+": "+err.Error())
		}
	}
	return p.check("econ conservation on every cell", len(sum.Cells) > 0, "no cells")
}

// busySampler polls the scale engine's frostlab_shard_busy{shard} gauges
// while it runs and measures how long each shard stayed busy. Its polls
// are labelled as check work, so the registry scrapes they make stay out
// of the telemetry layer's profiled time.
type busySampler struct {
	reg   *telemetry.Registry
	stopc chan struct{}
	wg    sync.WaitGroup
	first map[string]time.Time
	last  map[string]time.Time
}

func startBusySampler(reg *telemetry.Registry) *busySampler {
	b := &busySampler{reg: reg, stopc: make(chan struct{}), first: map[string]time.Time{}, last: map[string]time.Time{}}
	b.wg.Add(1)
	unprofiled(func() { go b.run() })
	return b
}

// busyEvery is the poll period; a sharded winter runs for about 0.6 s on
// 2 cores, so 10 ms resolves its busy spans to a few percent.
const busyEvery = 10 * time.Millisecond

func (b *busySampler) run() {
	defer b.wg.Done()
	tick := time.NewTicker(busyEvery)
	defer tick.Stop()
	for {
		select {
		case <-b.stopc:
			return
		case now := <-tick.C:
			for k, v := range registryValues(b.reg) {
				if v != 1 || !strings.HasPrefix(k, "frostlab_shard_busy{") {
					continue
				}
				if _, ok := b.first[k]; !ok {
					b.first[k] = now
				}
				b.last[k] = now
			}
		}
	}
}

// stop ends sampling and returns the busy-time spread across shards:
// (longest − shortest) / longest, 0 when fewer than two shards were seen.
func (b *busySampler) stop() float64 {
	close(b.stopc)
	b.wg.Wait()
	var lo, hi float64
	n := 0
	for k, f := range b.first {
		d := b.last[k].Sub(f).Seconds()
		if n == 0 || d < lo {
			lo = d
		}
		if n == 0 || d > hi {
			hi = d
		}
		n++
	}
	if n < 2 {
		return 0
	}
	return ratio(hi-lo, hi)
}
