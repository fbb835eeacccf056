// tentsim is a standalone what-if tool for the tent thermal model: given an
// equipment load and a set of envelope modifications, it reports the tent's
// equilibrium temperature rise and a day-by-day trace against the synthetic
// winter.
//
// Usage:
//
//	tentsim [-power 1400] [-mods RIBF] [-days 7] [-seed winter0910]
//
// For a simulated fleet of tents rather than one analytic tent, use
// frostctl -tents, which runs the sharded scale engine.
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

	"frostlab/internal/thermal"
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
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *powerW < 0 {
		return fmt.Errorf("-power must be non-negative")
	}
	if *days <= 0 {
		return fmt.Errorf("-days must be positive")
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
