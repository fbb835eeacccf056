// tentsim is a standalone what-if tool for the tent thermal model: given an
// equipment load and a set of envelope modifications, it reports the tent's
// equilibrium temperature rise and a day-by-day trace against the synthetic
// winter.
//
// Usage:
//
//	tentsim [-power 1400] [-mods RIBF] [-days 7] [-seed winter0910]
//	tentsim -tents N [-hosts-per-tent 9] [-shards K] [-days 7] [-seed winter0910]
//
// With -tents set, tentsim runs the sharded scale engine over a synthetic
// fleet of N tents instead of a single analytic tent: the day-by-day trace
// then comes from the simulated fleet's logger, and the load is the fleet's
// own host mix rather than -power. Results are byte-identical at any
// -shards value or GOMAXPROCS.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"frostlab/internal/core"
	"frostlab/internal/hardware"
	"frostlab/internal/thermal"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
	"frostlab/internal/weather"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "tentsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tentsim", flag.ContinueOnError)
	powerW := fs.Float64("power", 1400, "equipment heat load in watts")
	mods := fs.String("mods", "", "modifications to apply, letters from RIBF")
	days := fs.Int("days", 7, "simulated days")
	seed := fs.String("seed", "winter0910", "weather seed")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	tents := fs.Int("tents", 0, "simulate a synthetic fleet of this many tents via the sharded engine (0 = single analytic tent)")
	hostsPerTent := fs.Int("hosts-per-tent", 9, "hosts per synthetic tent (with -tents)")
	shards := fs.Int("shards", 0, "shard count for the synthetic fleet; <= 0 selects GOMAXPROCS. Results are byte-identical at any shard count or GOMAXPROCS")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *powerW < 0 {
		return fmt.Errorf("-power must be non-negative")
	}
	if *days <= 0 {
		return fmt.Errorf("-days must be positive")
	}
	if *tents < 0 {
		return fmt.Errorf("-tents must not be negative, got %d", *tents)
	}
	if *tents > 0 && *mods != "" {
		return fmt.Errorf("-mods does not apply with -tents; the scale run follows the experiment's modification calendar")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tentsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tentsim: memprofile:", err)
			}
		}()
	}

	if *tents > 0 {
		return runFleet(*seed, *tents, *hostsPerTent, *shards, *days)
	}
	tent, err := thermal.NewTent(thermal.DefaultTentConfig())
	if err != nil {
		return err
	}
	for _, c := range strings.ToUpper(*mods) {
		switch c {
		case 'R':
			tent.Apply(thermal.ReflectiveFoil)
		case 'I':
			tent.Apply(thermal.RemoveInnerTent)
		case 'B':
			tent.Apply(thermal.OpenBottom)
		case 'F':
			tent.Apply(thermal.InstallFan)
		default:
			return fmt.Errorf("unknown modification %q (use letters from RIBF)", string(c))
		}
	}
	wx := weather.ReferenceWinter0910(*seed)
	start := weather.ExperimentEpoch
	fmt.Printf("%-8s %10s %10s %8s %8s\n", "day", "out °C", "in °C", "ΔT", "RH in")
	var sumDT float64
	var n int
	for at := start; at.Before(start.AddDate(0, 0, *days)); at = at.Add(time.Minute) {
		out := wx.At(at)
		if err := tent.Step(time.Minute, out, units.Watts(*powerW)); err != nil {
			return err
		}
		sumDT += float64(tent.DeltaT())
		n++
		if at.Hour() == 12 && at.Minute() == 0 {
			in, rh := tent.Air()
			fmt.Printf("%-8s %10.1f %10.1f %8.1f %7.0f%%\n",
				at.Format("Jan 02"), float64(out.Temp), float64(in), float64(tent.DeltaT()), float64(rh))
		}
	}
	fmt.Printf("\nmean ΔT over %d days at %.0f W with mods %q: %.1f °C\n",
		*days, *powerW, strings.ToUpper(*mods), sumDT/float64(n))
	return nil
}

// runFleet is the -tents scale mode: the day-by-day trace comes from the
// sharded engine's simulated tent logger instead of a single analytic tent.
func runFleet(seed string, tents, hostsPerTent, shards, days int) error {
	fleet, err := hardware.SyntheticFleet(tents, hostsPerTent, seed)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(seed)
	cfg.Fleet = fleet
	cfg.MonitorEvery = 0
	cfg.End = cfg.Start.AddDate(0, 0, days)
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	exp, err := core.NewSharded(cfg, shards)
	if err != nil {
		return err
	}
	fmt.Printf("Simulating %d tents × %d hosts = %d hosts in %d shards over %d days (seed %q)...\n\n",
		tents, hostsPerTent, exp.Hosts(), exp.Shards(), days, seed)
	wallStart := time.Now()
	r, err := exp.Run()
	if err != nil {
		return err
	}
	wall := time.Since(wallStart)

	daily := func(s *timeseries.Series, day time.Time) (timeseries.Summary, error) {
		return s.SummarizeWindow(day, day.AddDate(0, 0, 1))
	}
	fmt.Printf("%-8s %10s %10s %8s %8s\n", "day", "out °C", "in °C", "ΔT", "RH in")
	var sumDT float64
	var n int
	for day := cfg.Start; day.Before(cfg.End); day = day.AddDate(0, 0, 1) {
		out, errOut := daily(r.OutsideTemp, day)
		in, errIn := daily(r.InsideTemp, day)
		rh, errRH := daily(r.InsideRH, day)
		if errOut != nil || errIn != nil || errRH != nil {
			continue
		}
		sumDT += in.Mean - out.Mean
		n++
		fmt.Printf("%-8s %10.1f %10.1f %8.1f %7.0f%%\n",
			day.Format("Jan 02"), out.Mean, in.Mean, in.Mean-out.Mean, rh.Mean)
	}
	if n > 0 {
		fmt.Printf("\nmean ΔT over %d days (tent 0 logger, daily means): %.1f °C\n", n, sumDT/float64(n))
	}
	hours := cfg.End.Sub(cfg.Start).Hours()
	fmt.Printf("wall clock: %v (%.1f ns/host-hour)\n",
		wall.Round(time.Millisecond),
		float64(wall.Nanoseconds())/(float64(exp.Hosts())*hours))
	return nil
}
