package core

import (
	"fmt"
	"math"
	"time"

	"frostlab/internal/hardware"
	"frostlab/internal/sensors"
	"frostlab/internal/simkernel"
	"frostlab/internal/thermal"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
	"frostlab/internal/weather"
	"frostlab/internal/workload"
)

// PrototypeResults reproduces the §3.1 weekend: a generic PC between two
// plastic boxes from Friday Feb 12 to Monday Feb 15, 2010.
type PrototypeResults struct {
	Start, End time.Time
	// OutsideMin and OutsideMean are the weekend's station statistics;
	// the paper reports −10.2 °C and −9.2 °C.
	OutsideMin, OutsideMean units.Celsius
	// CPUMin is the lowest lm-sensors CPU reading; the paper reports
	// "as low as −4 °C".
	CPUMin units.Celsius
	// Survived reports whether the machine ran the whole weekend without
	// a system failure.
	Survived bool
	// Cycles is how many synthetic load runs completed.
	Cycles uint64
	// OutsideTemp is the recorded outdoor series.
	OutsideTemp *timeseries.Series
	// CPUTemp is the lm-sensors record.
	CPUTemp *timeseries.Series
}

// PrototypeConfig parameterises RunPrototype.
type PrototypeConfig struct {
	// Seed roots the run's random streams and its weather,
	// ReferenceWinter0910(Seed).
	Seed       string
	Start, End time.Time
	// DutyCycle is the load fraction.
	DutyCycle float64
	// SampleEvery is the sensing cadence.
	SampleEvery time.Duration
}

// DefaultPrototypeConfig covers the paper's Feb 12–15 weekend.
func DefaultPrototypeConfig(seed string) PrototypeConfig {
	return PrototypeConfig{
		Seed:        seed,
		Start:       hardware.InstallPrototype,
		End:         time.Date(2010, time.February, 15, 9, 0, 0, 0, time.UTC),
		DutyCycle:   0.25,
		SampleEvery: 10 * time.Minute,
	}
}

// RunPrototype executes the prototype phase.
func RunPrototype(cfg PrototypeConfig) (*PrototypeResults, error) {
	if cfg.Seed == "" {
		return nil, fmt.Errorf("core: prototype needs a seed")
	}
	if !cfg.End.After(cfg.Start) {
		return nil, fmt.Errorf("core: prototype window inverted")
	}
	if cfg.SampleEvery <= 0 {
		return nil, fmt.Errorf("core: prototype needs a positive sampling interval")
	}
	if cfg.DutyCycle < 0 || cfg.DutyCycle > 1 {
		return nil, fmt.Errorf("core: duty cycle %v out of [0,1]", cfg.DutyCycle)
	}
	rng := simkernel.NewRNG(cfg.Seed + "/prototype")
	wx := weather.ReferenceWinter0910(cfg.Seed)
	host := hardware.ReferencePrototype()
	boxes := thermal.NewPrototypeBoxes()
	chip := sensors.NewChip(sensors.DefaultChipConfig(), rng, host.ID, 0)
	sched := simkernel.NewScheduler(cfg.Start)

	res := &PrototypeResults{
		Start:       cfg.Start,
		End:         cfg.End,
		OutsideMin:  units.Celsius(math.Inf(1)),
		CPUMin:      units.Celsius(math.Inf(1)),
		Survived:    true,
		OutsideTemp: timeseries.New("outside_temp", "°C"),
		CPUTemp:     timeseries.New("proto_cpu", "°C"),
	}
	var sum float64
	var n int
	var tickErr error
	if _, err := sched.Periodic(cfg.Start, cfg.SampleEvery, nil, func(now time.Time) {
		out := wx.At(now)
		boxes.Observe(out)
		intake, _ := boxes.Air()
		temps, err := thermal.SteadyState(intake,
			host.Spec.Power(cfg.DutyCycle), host.Spec.CPUPower(cfg.DutyCycle), host.Spec.Airflow)
		if err != nil {
			if tickErr == nil {
				tickErr = err
			}
			return
		}
		reading, err := chip.Read(temps.CPU)
		if err != nil {
			reading = temps.CPU
		}
		_ = res.OutsideTemp.Append(now, float64(out.Temp))
		_ = res.CPUTemp.Append(now, float64(reading))
		if out.Temp < res.OutsideMin {
			res.OutsideMin = out.Temp
		}
		if reading < res.CPUMin {
			res.CPUMin = reading
		}
		sum += float64(out.Temp)
		n++
	}); err != nil {
		return nil, err
	}
	// The synthetic load ran on the prototype too (S.M.A.R.T. and
	// lm-sensors were monitored through it, §3.1).
	fuzz := workload.StartFuzz(rng, host.ID)
	if _, err := sched.Periodic(cfg.Start, workload.CyclePeriod, fuzz, func(time.Time) {
		res.Cycles++
	}); err != nil {
		return nil, err
	}
	sched.RunUntil(cfg.End)
	if tickErr != nil {
		return nil, tickErr
	}
	if n > 0 {
		res.OutsideMean = units.Celsius(sum / float64(n))
	}
	return res, nil
}
