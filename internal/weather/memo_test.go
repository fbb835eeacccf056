package weather

import (
	"math"
	"testing"
	"time"

	"frostlab/internal/units"
)

// TestSyntheticAtMemo verifies the same-instant memo is invisible to
// callers: repeated queries at one instant return identical Conditions, and
// interleaving other instants (in any order) never perturbs a result
// compared to a fresh, memo-cold model.
func TestSyntheticAtMemo(t *testing.T) {
	mk := func() *Synthetic { return ReferenceWinter0910("memo-test") }
	base := ExperimentEpoch
	instants := []time.Time{
		base,
		base.Add(time.Minute),
		base, // revisit after the memo moved on
		base.Add(15 * time.Minute),
		base.Add(time.Minute),
		base.Add(27*time.Hour + 13*time.Minute),
	}
	warm := mk()
	for i, at := range instants {
		got := warm.At(at)
		if again := warm.At(at); again != got {
			t.Fatalf("instant %d (%v): repeated query changed: %+v vs %+v", i, at, got, again)
		}
		want := mk().At(at) // memo-cold evaluation of the same instant
		if got != want {
			t.Fatalf("instant %d (%v): memoized %+v != fresh %+v", i, at, got, want)
		}
	}
}

// BenchmarkSyntheticAtSameInstant measures the memo hit path (the failure
// tick and station sampler reuse the env step's instant).
func BenchmarkSyntheticAtSameInstant(b *testing.B) {
	s := ReferenceWinter0910("memo-bench")
	at := ExperimentEpoch.Add(42 * time.Minute)
	s.At(at)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(at)
	}
}

// straightEval is Synthetic.eval as first written, recomputing the elapsed
// time inside every harmonic and the seasonal mean twice. The hoisted eval
// must match it bit for bit.
func straightEval(s *Synthetic, t time.Time) Conditions {
	at := func(h harmonic) float64 {
		x := t.Sub(s.epoch).Seconds() / h.period.Seconds()
		return h.amp * math.Sin(2*math.Pi*x+h.phase)
	}
	elev := SolarElevation(s.latitude, t)
	cloud := 0.62
	for _, h := range s.cloudH {
		cloud += at(h)
	}
	if cloud < 0 {
		cloud = 0
	}
	if cloud > 1 {
		cloud = 1
	}

	temp := s.seasonal(t)
	hour := float64(t.Hour()) + float64(t.Minute())/60
	diurnalGrowth := 1 + math.Max(0, t.Sub(s.epoch).Hours()/24)*0.02
	temp += s.diurnalA * diurnalGrowth * math.Sin(2*math.Pi*(hour-10.5)/24)
	for _, h := range s.synoptic {
		temp += at(h)
	}
	for _, h := range s.tempNoise {
		temp += at(h)
	}
	for _, c := range s.snaps {
		temp += c.at(t)
	}
	anomaly := temp - s.seasonal(t)
	rh := s.rhMean - 0.9*anomaly
	for _, h := range s.humid {
		rh += at(h)
	}
	rh += 8 * (cloud - 0.5)
	wind := s.windMean
	for _, h := range s.windH {
		wind += at(h)
	}
	if wind < 0 {
		wind = 0
	}
	irr := ClearSkyIrradiance(elev) * (1 - 0.75*cloud)
	snow := 0.0
	if temp < 1 && cloud > 0.72 {
		snow = (cloud - 0.72) / 0.28 * 1.8
	}
	return Conditions{
		Temp:         units.Celsius(temp),
		RH:           units.RelHumidity(rh).Clamp(),
		Wind:         units.MetersPerSecond(wind),
		Irradiance:   units.WattsPerSquareMeter(irr),
		SnowfallRate: snow,
	}
}

// TestSyntheticAtMatchesStraightLine compares At with straightEval under
// math.Float64bits at every minute of the 35-day reference window
// (Feb 19 – Mar 26, 2010).
func TestSyntheticAtMatchesStraightLine(t *testing.T) {
	start := time.Date(2010, time.February, 19, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 0, 35)
	for _, seed := range []string{"winter0910", "winter0910-r115"} {
		s := ReferenceWinter0910(seed)
		for at := start; !at.After(end); at = at.Add(time.Minute) {
			got, want := s.At(at), straightEval(s, at)
			for i, pair := range [][2]float64{
				{float64(got.Temp), float64(want.Temp)},
				{float64(got.RH), float64(want.RH)},
				{float64(got.Wind), float64(want.Wind)},
				{float64(got.Irradiance), float64(want.Irradiance)},
				{got.SnowfallRate, want.SnowfallRate},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("seed %s at %v: field %d is %v, straight-line %v", seed, at, i, pair[0], pair[1])
				}
			}
		}
	}
}
