package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"frostlab/internal/control"
	"frostlab/internal/failure"
	"frostlab/internal/hardware"
	"frostlab/internal/monitor"
	"frostlab/internal/rules"
	"frostlab/internal/sensors"
	"frostlab/internal/simkernel"
	"frostlab/internal/telemetry"
	"frostlab/internal/thermal"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
	"frostlab/internal/weather"
	"frostlab/internal/workload"
)

// EventKind classifies experiment log entries.
type EventKind string

// Experiment event kinds.
const (
	EventInstall         EventKind = "install"
	EventModification    EventKind = "modification"
	EventTransient       EventKind = "transient-failure"
	EventRepair          EventKind = "repair"
	EventRelocation      EventKind = "relocation-indoors"
	EventSwitchFailure   EventKind = "switch-failure"
	EventChipGlitch      EventKind = "chip-glitch"
	EventChipLost        EventKind = "chip-undetected"
	EventChipRecovered   EventKind = "chip-recovered"
	EventBadHash         EventKind = "bad-hash"
	EventReadout         EventKind = "lascar-readout"
	EventDiskFailure     EventKind = "disk-failure"
	EventStorageLost     EventKind = "storage-lost"
	EventDutyChange      EventKind = "duty-change"
	EventControlFallback EventKind = "control-fallback"
)

// Event is one entry of the experiment log.
type Event struct {
	At      time.Time
	Kind    EventKind
	Subject string
	Detail  string
}

// hostState is the runtime state of one machine.
type hostState struct {
	host   *hardware.Host
	chip   *sensors.Chip
	disks  []*sensors.Disk
	runner *workload.Runner
	store  *monitor.FileStore
	agent  *monitor.Agent
	psk    []byte

	installed bool
	online    bool
	relocated bool // taken indoors after repeated failures

	// tid is the host's track id in an attached tracer (0 is the
	// experiment's own track), assigned in sorted fleet order.
	tid int

	failedDisks []int
	storageLost bool

	cycles     uint64
	badHashes  []workload.CycleResult
	transients []time.Time
	cpuMin     units.Celsius
	cpuMax     units.Celsius

	chipGlitchSeen bool
	chipLost       bool

	// Hot-path caches: the thermal response and draw at the current duty
	// level (fixed for the run unless the control plane switches levels),
	// the per-disk failure-engine IDs, and the " OK <reference md5>\n"
	// tail of the healthy workload log line.
	profile  thermal.Profile
	power    units.Watts
	diskIDs  []string
	okSuffix []byte
	// profiles and powers are the per-duty-level variants of profile and
	// power, precomputed by setupControl; unused in open-loop runs.
	profiles [control.NumDutyLevels]thermal.Profile
	powers   [control.NumDutyLevels]units.Watts
	// migrated marks a tent host whose workload cycles currently run on
	// its basement twin (control.DutyMigrate).
	migrated bool
	// lineBuf is the host's reusable log-line scratch buffer. FileStore
	// copies appended bytes, so the buffer can be re-filled every event.
	lineBuf []byte

	// cpuSeries records the lm-sensors readings of tent hosts, including
	// any bogus −111 °C values — it is the digital record behind §3.1's
	// "readings recorded by lm-sensors showed that the CPU had been
	// operating in temperatures as low as −4 °C".
	cpuSeries *timeseries.Series
}

// envName returns where the host currently runs.
func (hs *hostState) envName() string {
	if hs.relocated {
		return "indoors"
	}
	return string(hs.host.Location)
}

// Experiment is a configured, runnable reproduction of the normal phase.
type Experiment struct {
	cfg   Config
	rng   *simkernel.RNG
	sched *simkernel.Scheduler
	wx    weather.Model

	tent     *thermal.Tent
	basement *thermal.Basement
	station  *weather.Station
	lascar   *sensors.Lascar
	fleet    *hardware.Fleet
	engine   *failure.Engine
	coll     *monitor.Collector

	// gaps is the collection plane's coverage ledger: every monitoring
	// round records which installed hosts produced data and which were
	// offline, reproducing the §4.2.1 data holes as explicit gaps.
	gaps     *monitor.GapLedger
	monRound int

	// samples and alerts are the sim-time alerting plane (cfg.Rules):
	// collected sensor files stream into a tsdb-backed SampleDB and the
	// rules engine evaluates once per monitoring round on simulated
	// time. Both nil when cfg.Rules is nil.
	samples *monitor.SampleDB
	alerts  *rules.Engine

	// hosts is dense host state sorted by host ID — the classic engine's
	// slice-of-structs counterpart to the sharded engine's
	// struct-of-arrays layout. byID maps a host ID to its slice index;
	// order mirrors the sorted IDs for callers that want names.
	hosts  []*hostState
	byID   map[string]int
	order  []string
	events []Event

	// meter is the Technoline Cost Control unit on the tent's power
	// feed (§3.3).
	meter *sensors.PowerMeter

	prevOutside units.Celsius
	havePrev    bool

	nonceCount uint64

	// packs shares generated trees and pristine archives between twin
	// hosts, which run the same disk image.
	packs *workload.PackCache

	// tentW is the running sum of online tent-host power at the configured
	// duty cycle. It is recomputed (in fleet order, with the same float
	// additions as hardware.TotalPower) on every install/online/offline/
	// relocate transition instead of rebuilding a host slice every EnvStep.
	tentW units.Watts
	// tsBuf holds the RFC3339 timestamp of the current failure tick,
	// formatted once per tick and shared by every host's sensor line.
	tsBuf []byte

	// met is the always-on tick accounting (atomic adds on the hot path,
	// exposed by InstrumentTelemetry); tracer, when attached, records the
	// simulated timeline as spans and instants (see WithTracer).
	met    expMetrics
	tracer *telemetry.Tracer

	// ctl is the closed-loop control plane, nil in open-loop runs.
	ctl *ctlState
}

// New builds an experiment from the configuration: the paper's reference
// fleet unless cfg.Fleet overrides it, with physics, schedules and
// calibration from cfg.
func New(cfg Config) (*Experiment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := simkernel.NewRNG(cfg.Seed)
	wx := cfg.Weather
	if wx == nil {
		wx = weather.ReferenceWinter0910(cfg.Seed)
	}
	tent, err := thermal.NewTent(cfg.Tent)
	if err != nil {
		return nil, err
	}
	engine, err := failure.NewEngine(cfg.Failure, rng)
	if err != nil {
		return nil, err
	}
	fleet := cfg.Fleet
	if fleet == nil {
		fleet, err = hardware.ReferenceFleet()
		if err != nil {
			return nil, err
		}
	}
	if len(fleet.All()) == 0 {
		return nil, fmt.Errorf("core: fleet is empty")
	}
	e := &Experiment{
		cfg:      cfg,
		rng:      rng,
		sched:    simkernel.NewScheduler(cfg.Start),
		wx:       wx,
		tent:     tent,
		basement: thermal.NewBasement(),
		fleet:    fleet,
		engine:   engine,
		coll:     monitor.NewCollector(0),
		gaps:     monitor.NewGapLedger(),
		byID:     make(map[string]int),
		packs:    workload.NewPackCache(),
	}
	if cfg.Rules != nil {
		e.samples = monitor.NewSampleDB()
		e.coll = e.coll.WithSamples(e.samples)
		e.alerts = rules.NewEngine(cfg.Rules, e.samples.Store()).
			Live("coverage", func() float64 { return e.gaps.Coverage() }).
			Live("tent_temp", func() float64 { t, _ := e.tent.Air(); return float64(t) }).
			Live("tent_rh", func() float64 { _, rh := e.tent.Air(); return float64(rh) }).
			Live("tent_power", func() float64 { return float64(e.tentW) }).
			Live("outside_temp", func() float64 { return float64(e.prevOutside) }).
			Live("control_fallback", func() float64 {
				if e.ctl != nil && e.ctl.prevFallback {
					return 1
				}
				return 0
			})
	}
	e.station = weather.NewStation(wx, rng, cfg.StationInterval)
	e.meter = sensors.NewPowerMeter(rng, "tent-feed")
	e.lascar, err = sensors.NewLascar(sensors.ELUSB2Spec, rng, tent, cfg.LascarInterval, cfg.LascarArrival)
	if err != nil {
		return nil, err
	}
	for _, h := range fleet.All() {
		hs := &hostState{
			host:   h,
			chip:   sensors.NewChip(sensors.DefaultChipConfig(), rng, h.ID, cfg.ChipSusceptibility),
			store:  monitor.NewFileStore(),
			psk:    []byte(cfg.Seed + "/psk/" + h.ID),
			cpuMin: units.Celsius(math.Inf(1)),
			cpuMax: units.Celsius(math.Inf(-1)),
		}
		hs.profile, err = thermal.NewProfile(
			h.Spec.Power(cfg.DutyCycle), h.Spec.CPUPower(cfg.DutyCycle), h.Spec.Airflow)
		if err != nil {
			return nil, fmt.Errorf("core: host %s thermal profile: %w", h.ID, err)
		}
		hs.power = h.Spec.Power(cfg.DutyCycle)
		for i := 0; i < h.Spec.Layout.DiskCount(); i++ {
			hs.disks = append(hs.disks, sensors.NewDisk(rng, h.ID, i))
			hs.diskIDs = append(hs.diskIDs, fmt.Sprintf("%s/%d", h.ID, i))
		}
		hs.agent = monitor.NewAgent(h.ID, hs.store)
		engine.RegisterHost(h.ID, h.Spec.KnownDefective)
		// Construction stays in fleet insertion order (the RNG draws above
		// depend on it); the dense slice is sorted by ID afterwards.
		e.hosts = append(e.hosts, hs)
	}
	sort.Slice(e.hosts, func(i, j int) bool { return e.hosts[i].host.ID < e.hosts[j].host.ID })
	e.order = make([]string, len(e.hosts))
	for i, hs := range e.hosts {
		hs.tid = i + 1
		e.order[i] = hs.host.ID
		e.byID[hs.host.ID] = i
	}
	if cfg.Control != nil {
		if err := e.setupControl(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// logEvent appends to the experiment log (and, with a tracer attached,
// mirrors the event onto the subject's trace track).
func (e *Experiment) logEvent(at time.Time, kind EventKind, subject, detail string) {
	e.events = append(e.events, Event{At: at, Kind: kind, Subject: subject, Detail: detail})
	e.traceEvent(at, kind, subject)
}

// environment returns the thermal environment a host currently sits in.
func (e *Experiment) environment(hs *hostState) (units.Celsius, units.RelHumidity) {
	if hs.relocated {
		return sensors.IndoorConditions.Temp, sensors.IndoorConditions.RH
	}
	switch hs.host.Location {
	case hardware.Tent:
		return e.tent.Air()
	case hardware.Basement:
		return e.basement.Air()
	default:
		return e.tent.Air()
	}
}

// tentPower returns the draw of online tent hosts at the configured duty.
func (e *Experiment) tentPower() units.Watts { return e.tentW }

// recomputeTentPower refreshes the cached tent power sum. It must be called
// after every transition that changes which hosts count (install, disk
// array loss, transient failure, repair, relocation) or how much they draw
// (a control-plane duty level change). The loop walks the fleet in order
// and performs the same additions as the old per-EnvStep
// hardware.TotalPower pass — hs.power caches Spec.Power at the host's
// current duty — so the cached value is bit-identical to recomputing from
// scratch.
func (e *Experiment) recomputeTentPower() {
	var sum units.Watts
	for _, hs := range e.hosts {
		if hs.installed && hs.online && !hs.relocated && hs.host.Location == hardware.Tent {
			sum += hs.power
		}
	}
	e.tentW = sum
}

// Run executes the normal phase and returns the assembled results.
func (e *Experiment) Run() (*Results, error) {
	return e.RunContext(context.Background())
}

// ctxCheckEvery is how many dispatched events pass between context polls in
// RunContext. The reference run fires a few million events; checking every
// few thousand keeps cancellation latency in the low milliseconds without
// measurable overhead on the hot path.
const ctxCheckEvery = 4096

// RunContext executes the normal phase under a context: campaigns and CLIs
// can cancel a simulation cleanly mid-run. Cancellation is polled between
// scheduler events, so the experiment always stops at an event boundary
// and returns ctx.Err().
func (e *Experiment) RunContext(ctx context.Context) (*Results, error) {
	cfg := e.cfg
	var runErr error
	fail := func(err error) {
		if runErr == nil && err != nil {
			runErr = err
		}
	}

	// Outdoor station.
	if err := e.station.Install(e.sched, cfg.Start); err != nil {
		return nil, err
	}
	// Tent logger (starts sampling at its delivery date).
	if err := e.lascar.Install(e.sched, cfg.Start); err != nil {
		return nil, err
	}
	// Logger readout trips.
	if cfg.ReadoutEvery > 0 {
		first := cfg.LascarArrival.Add(cfg.ReadoutEvery)
		if first.Before(cfg.End) {
			if err := e.sched.Periodic(first, cfg.ReadoutEvery, nil, func(now time.Time) {
				e.lascar.BeginReadout(now.Add(20 * time.Minute))
				e.logEvent(now, EventReadout, "lascar", "USB readout trip; indoor samples recorded")
				if e.tracer != nil {
					e.tracer.Span("lascar-readout", "sensors", 0, now, 20*time.Minute)
				}
			}); err != nil {
				return nil, err
			}
		}
	}

	// Environment physics.
	if err := e.sched.Periodic(cfg.Start, cfg.EnvStep, nil, func(now time.Time) {
		out := e.wx.At(now)
		power := e.tentPower()
		fail(e.tent.Step(cfg.EnvStep, out, power))
		e.meter.Observe(cfg.EnvStep, power)
		e.basement.Tick(cfg.EnvStep)
		e.met.weatherTicks.Inc()
	}); err != nil {
		return nil, err
	}

	// Failure sampling, component thermals, sensor logging.
	if err := e.sched.Periodic(cfg.Start.Add(cfg.FailureStep), cfg.FailureStep, nil, func(now time.Time) {
		fail(e.failureTick(now))
		e.met.failureTicks.Inc()
		if e.tracer != nil {
			e.tracer.Counter("tent_power_watts", now, float64(e.tentW))
		}
	}); err != nil {
		return nil, err
	}

	// Tent modifications — the paper's open-loop calendar. A closed-loop
	// run owns the ladder through its damper instead; the calendar dates
	// survive only as the supervisor's fallback schedule.
	if e.ctl == nil {
		for m, at := range cfg.Modifications {
			m := m
			if at.Before(cfg.Start) || at.After(cfg.End) {
				continue
			}
			if err := e.sched.At(at, func(now time.Time) {
				e.tent.Apply(m)
				e.logEvent(now, EventModification, "tent", fmt.Sprintf("%v applied (%s)", m, modName(m)))
			}); err != nil {
				return nil, err
			}
		}
	} else {
		every := e.ctl.ctl.Config().Every
		if err := e.sched.Periodic(cfg.Start.Add(every), every, nil, func(now time.Time) {
			e.controlTick(now)
		}); err != nil {
			return nil, err
		}
	}

	// Host installs and workload tasks.
	for _, hs := range e.hosts {
		hs := hs
		at := hs.host.InstalledAt
		if at.Before(cfg.Start) {
			at = cfg.Start
		}
		if at.After(cfg.End) {
			continue
		}
		if err := e.sched.At(at, func(now time.Time) {
			fail(e.installHost(now, hs))
		}); err != nil {
			return nil, err
		}
	}

	// Network switches.
	e.scheduleSwitches()

	// Monitoring rounds.
	if cfg.MonitorEvery > 0 {
		if err := e.sched.Periodic(cfg.Start.Add(cfg.MonitorEvery), cfg.MonitorEvery, nil, func(now time.Time) {
			fail(e.monitorRound(now))
		}); err != nil {
			return nil, err
		}
	}

	// Dispatch up to the horizon, polling the context between events.
	for steps := 0; ; steps++ {
		if steps%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		due, ok := e.sched.NextDue()
		if !ok || due.After(cfg.End) {
			break
		}
		e.sched.Step()
	}
	// Advance the clock to the horizon itself so periodic models observe a
	// definite end time (any remaining events are due after it).
	e.sched.RunUntil(cfg.End)
	if runErr != nil {
		return nil, runErr
	}
	// A periodic task that failed to re-schedule has silently stopped
	// recurring; that is a corrupted simulation, not a partial result.
	if err := e.sched.Err(); err != nil {
		return nil, err
	}
	if e.tracer != nil {
		e.tracer.Span("normal-phase", "phase", 0, cfg.Start, cfg.End.Sub(cfg.Start))
	}
	return e.assembleResults()
}

func modName(m thermal.Modification) string {
	switch m {
	case thermal.ReflectiveFoil:
		return "reflective foil cover"
	case thermal.RemoveInnerTent:
		return "inner tent removed"
	case thermal.OpenBottom:
		return "bottom tarpaulin opened"
	case thermal.InstallFan:
		return "tabletop fan installed"
	default:
		return m.String()
	}
}

// installHost brings a host online and starts its workload cycle.
func (e *Experiment) installHost(now time.Time, hs *hostState) error {
	runner, err := e.packs.NewRunner(hs.host.ID, e.cfg.workloadSeed(hs.host),
		e.cfg.WorkloadFiles, e.cfg.WorkloadBytes, e.cfg.WorkloadBlockSize, e.rng)
	if err != nil {
		return err
	}
	hs.runner = runner
	hs.installed = true
	hs.online = true
	hs.okSuffix = []byte(" OK " + runner.Reference().String() + "\n")
	if e.ctl != nil {
		// A host installed mid-run joins at the duty level currently in
		// force, not the configured baseline.
		idx := int(e.ctl.level)
		hs.profile = hs.profiles[idx]
		hs.power = hs.powers[idx]
		if hs.host.Location == hardware.Tent {
			hs.migrated = e.ctl.level == control.DutyMigrate
		}
	}
	e.recomputeTentPower()
	if hs.host.Location == hardware.Tent {
		hs.cpuSeries = timeseries.New("cpu_"+hs.host.ID, "°C")
	}
	detail := fmt.Sprintf("vendor %s %s in %s, reference md5 %s",
		hs.host.Spec.Vendor, hs.host.Spec.FormFactor, hs.host.Location, runner.Reference())
	if hs.host.ReplacementFor != "" {
		detail += fmt.Sprintf(" (replacement for host %s)", hs.host.ReplacementFor)
	}
	e.logEvent(now, EventInstall, hs.host.ID, detail)

	fuzz := workload.StartFuzz(e.rng, hs.host.ID)
	err = e.sched.Periodic(now.Add(workload.CyclePeriod), workload.CyclePeriod, fuzz, func(at time.Time) {
		e.workloadCycle(at, hs)
	})
	return err
}

// workloadCycle runs one §3.5 cycle for a host: usually a cheap accounting
// step (the result is bit-identical to the reference), but on a sampled
// memory corruption the real pipeline runs and the forensics are recorded.
func (e *Experiment) workloadCycle(now time.Time, hs *hostState) {
	if !hs.online {
		return
	}
	if hs.migrated {
		// The cycle runs on the basement twin instead (DutyMigrate); it
		// counts toward the control plane's migration ledger, not toward
		// this host's §4 statistics.
		e.ctl.migratedCycles++
		return
	}
	hs.cycles++
	e.met.workloadCycles.Inc()
	corrupted := e.engine.CycleCorrupted(hs.host.ID, e.cfg.PagesPerCycle, hs.host.Spec.ECC)
	if !corrupted {
		// The healthy line is timestamp + a precomputed " OK <md5>\n" tail,
		// assembled in the host's reusable buffer (FileStore copies).
		buf := now.UTC().AppendFormat(hs.lineBuf[:0], time.RFC3339)
		buf = append(buf, hs.okSuffix...)
		hs.store.Append(monitor.MD5Log, buf)
		hs.lineBuf = buf[:0]
		return
	}
	res, err := hs.runner.RunCycle(now, true)
	if err != nil {
		// A pipeline error here is a programming bug; record loudly.
		hs.store.Append(monitor.MD5Log, []byte("ERROR "+err.Error()+"\n"))
		return
	}
	hs.badHashes = append(hs.badHashes, res)
	e.met.badHashes.Inc()
	line := fmt.Sprintf("%s BAD %s (bad blocks %v of %d)\n",
		now.UTC().Format(time.RFC3339), res.MD5, res.BadBlocks, res.Blocks)
	hs.store.Append(monitor.MD5Log, []byte(line))
	e.logEvent(now, EventBadHash, hs.host.ID,
		fmt.Sprintf("wrong hash in %s; %d of %d blocks corrupt", hs.envName(), len(res.BadBlocks), res.Blocks))
}

// failureTick advances component thermals, sensors and failure sampling for
// every installed host.
func (e *Experiment) failureTick(now time.Time) error {
	out := e.wx.At(now)
	var ratePerHour float64
	if e.havePrev {
		ratePerHour = math.Abs(float64(out.Temp-e.prevOutside)) / e.cfg.FailureStep.Hours()
	}
	e.prevOutside = out.Temp
	e.havePrev = true

	// One timestamp render serves every host's sensor line this tick.
	e.tsBuf = now.UTC().AppendFormat(e.tsBuf[:0], time.RFC3339)

	for _, hs := range e.hosts {
		if !hs.installed || !hs.online {
			continue
		}
		ambient, rh := e.environment(hs)
		if hs.relocated {
			// A host taken indoors has left both experimental arms
			// (§4.2.1: host 15 "was left to operate in an indoors
			// environment; no further failures have been detected"). It
			// keeps working and logging but is no longer failure-sampled.
			e.watchChip(now, hs, hs.profile.At(ambient).CPU)
			continue
		}
		temps := hs.profile.At(ambient)
		if temps.CPU < hs.cpuMin {
			hs.cpuMin = temps.CPU
		}
		if temps.CPU > hs.cpuMax {
			hs.cpuMax = temps.CPU
		}
		hs.chip.Observe(e.cfg.FailureStep, temps.CPU)
		e.watchChip(now, hs, temps.CPU)
		for i, d := range hs.disks {
			if d.Failed() {
				continue
			}
			d.Observe(e.cfg.FailureStep, temps.Disk)
			died, err := e.engine.StepDisk(e.cfg.FailureStep,
				hs.diskIDs[i], temps.Disk, e.cfg.Disk)
			if err != nil {
				return err
			}
			if died {
				d.Fail()
				e.handleDiskFailure(now, hs, i)
			}
		}
		if hs.storageLost {
			continue // the host went down with its array this tick
		}

		stress := failure.Stress{
			Ambient:         ambient,
			RH:              rh,
			CaseAir:         temps.CaseAir,
			TempRatePerHour: tern(hs.host.Location == hardware.Tent && !hs.relocated, ratePerHour, 0),
			Condensing:      units.CondensationRisk(ambient, rh, temps.CaseAir),
		}
		failed, err := e.engine.StepHost(e.cfg.FailureStep, hs.host.ID, stress)
		if err != nil {
			return err
		}
		if failed {
			e.handleTransient(now, hs)
		}
	}
	return nil
}

func tern[T any](c bool, a, b T) T {
	if c {
		return a
	}
	return b
}

// watchChip narrates the §4.2.1 sensor chip story: log the first bogus
// reading, the failed redetection, and the warm-reboot recovery; also
// append the sensor log line the monitoring host collects.
func (e *Experiment) watchChip(now time.Time, hs *hostState, trueCPU units.Celsius) {
	reading, err := hs.chip.Read(trueCPU)
	// The line is the tick's shared timestamp (e.tsBuf, rendered once in
	// failureTick) plus the reading, built in the host's reusable buffer.
	buf := append(hs.lineBuf[:0], e.tsBuf...)
	switch {
	case err != nil:
		buf = append(buf, " cpu=ERR chip not detected\n"...)
	default:
		buf = append(buf, " cpu="...)
		buf = strconv.AppendFloat(buf, float64(reading), 'f', 1, 64)
		buf = append(buf, '\n')
		if hs.cpuSeries != nil {
			_ = hs.cpuSeries.Append(now, float64(reading))
		}
	}
	hs.store.Append(monitor.SensorLog, buf)
	hs.lineBuf = buf[:0]

	switch hs.chip.State() {
	case sensors.ChipGlitching:
		if !hs.chipGlitchSeen {
			hs.chipGlitchSeen = true
			e.logEvent(now, EventChipGlitch, hs.host.ID,
				fmt.Sprintf("lm-sensors reporting %v; anomaly detected", sensors.BogusReading))
			// The operators tried to redetect the chip two days later —
			// which killed it.
			_ = e.sched.At(now.Add(48*time.Hour), func(at time.Time) {
				hs.chip.Redetect()
				if hs.chip.State() == sensors.ChipUndetected && !hs.chipLost {
					hs.chipLost = true
					e.logEvent(at, EventChipLost, hs.host.ID, "redetection attempt; chip ceased to be detected")
					// "After a week, we risked a warm system reboot."
					_ = e.sched.At(at.Add(7*24*time.Hour), func(at2 time.Time) {
						hs.chip.WarmReboot()
						e.logEvent(at2, EventChipRecovered, hs.host.ID, "warm reboot; sensor chip works again")
					})
				}
			})
		}
	}
}

// handleDiskFailure cascades a drive death through the host's storage
// layout: a surviving array degrades; a lost array takes the host down for
// good (no §3.4 layout can be rebuilt on the terrace).
func (e *Experiment) handleDiskFailure(now time.Time, hs *hostState, index int) {
	hs.failedDisks = append(hs.failedDisks, index)
	layout := hs.host.Spec.Layout
	if layout.SurvivesDiskFailures(hs.failedDisks) {
		e.logEvent(now, EventDiskFailure, hs.host.ID,
			fmt.Sprintf("disk %d failed; %s array degraded but serving", index, layout))
		return
	}
	hs.storageLost = true
	hs.online = false
	e.recomputeTentPower()
	e.logEvent(now, EventStorageLost, hs.host.ID,
		fmt.Sprintf("disk %d failed; %s array lost, host down", index, layout))
}

// handleTransient implements the paper's operational policy: first failure
// gets an inspection and reset after the repair delay; a second failure
// takes the host indoors for good (§4.2.1, host 15).
func (e *Experiment) handleTransient(now time.Time, hs *hostState) {
	hs.transients = append(hs.transients, now)
	hs.online = false
	e.recomputeTentPower()
	nth := len(hs.transients)
	e.logEvent(now, EventTransient, hs.host.ID,
		fmt.Sprintf("system failure #%d in %s", nth, hs.envName()))
	after := e.cfg.RepairDelay
	if e.tracer != nil {
		// The outage's full extent is known up front: the host stays down
		// until the scheduled repair (or relocation) fires.
		e.tracer.Span("outage", "failure", hs.tid, now, after)
	}
	if nth == 1 {
		_ = e.sched.At(now.Add(after), func(at time.Time) {
			hs.online = true
			e.recomputeTentPower()
			e.logEvent(at, EventRepair, hs.host.ID, "inspection and reset; no cause found; marked transient")
		})
		return
	}
	_ = e.sched.At(now.Add(after), func(at time.Time) {
		hs.relocated = true
		hs.online = true
		e.recomputeTentPower()
		e.logEvent(at, EventRelocation, hs.host.ID,
			"could not resume outside; taken indoors, stable since")
	})
}

// scheduleSwitches samples and logs the tent switches' lifetimes. The spare
// is placed in service when the first deployed unit dies.
func (e *Experiment) scheduleSwitches() {
	switches := hardware.ReferenceSwitches()
	if len(switches) == 0 {
		return
	}
	type swState struct {
		sw  hardware.Switch
		ttf time.Duration
	}
	var deployed []swState
	var spare *swState
	for i, sw := range switches {
		s := swState{sw: sw, ttf: e.engine.RegisterSwitch(sw.ID, sw.Whining)}
		if i < 2 {
			deployed = append(deployed, s)
		} else {
			sCopy := s
			spare = &sCopy
		}
	}
	for _, s := range deployed {
		s := s
		at := e.cfg.Start.Add(s.ttf)
		if at.After(e.cfg.End) {
			continue
		}
		_ = e.sched.At(at, func(now time.Time) {
			e.logEvent(now, EventSwitchFailure, s.sw.ID, "switch failed (known whining unit)")
			if spare != nil {
				sp := spare
				spare = nil
				spareAt := now.Add(sp.ttf)
				if spareAt.Before(e.cfg.End) {
					_ = e.sched.At(spareAt, func(at2 time.Time) {
						e.logEvent(at2, EventSwitchFailure, sp.sw.ID,
							"spare switch manifested an identical failure state")
					})
				}
			}
		})
	}
}

// monitorRound collects every online host over an authenticated in-memory
// connection, exactly as cmd/collectord does over TCP. Installed hosts
// that are offline produce no data, and — unlike the paper's collection
// scripts, which left nothing but a hole in the series — the round's gap
// ledger records them as missed, so coverage is auditable after the run.
func (e *Experiment) monitorRound(now time.Time) error {
	rep := monitor.RoundReport{Round: e.monRound + 1, At: now}
	for _, hs := range e.hosts {
		if !hs.installed {
			continue
		}
		if !hs.online {
			rep.Hosts = append(rep.Hosts, monitor.HostOutcome{
				HostID: hs.host.ID,
				Status: monitor.StatusFailed,
				Err:    "host offline",
			})
			e.met.hostMisses.Inc()
			continue
		}
		stats, err := e.collectHost(now, hs)
		if err != nil {
			return fmt.Errorf("core: collecting %s: %w", hs.host.ID, err)
		}
		rep.Hosts = append(rep.Hosts, monitor.HostOutcome{
			HostID:       hs.host.ID,
			Status:       monitor.StatusOK,
			Attempts:     1,
			Files:        stats.Files,
			LiteralBytes: stats.LiteralBytes,
			TotalBytes:   stats.TotalBytes,
		})
		e.met.hostCollects.Inc()
	}
	if len(rep.Hosts) == 0 {
		return nil
	}
	e.monRound++
	e.met.monitorRounds.Inc()
	e.gaps.Record(rep)
	if e.alerts != nil {
		e.alerts.Eval(now)
	}
	if e.tracer != nil {
		e.tracer.Instant("monitor-round", "monitor", 0, now)
		e.tracer.Counter("fleet_coverage", now, rep.Coverage())
	}
	return nil
}

func (e *Experiment) collectHost(now time.Time, hs *hostState) (monitor.RoundStats, error) {
	e.nonceCount++
	label := e.cfg.Seed + "/" + strconv.FormatUint(e.nonceCount, 10)
	return monitor.CollectInProcess(hs.agent, e.coll, hs.host.ID, hs.psk, label, now)
}
