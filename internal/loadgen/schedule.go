// Package loadgen is a deterministic phased load driver for the serving
// plane: in-process simulated nodeagent fleets collected over the real
// wire protocol, plus a scraper fleet hammering the dashboard's HTTP
// endpoints, all paced by an open-loop arrival schedule drawn from a
// seeded RNG. It exists to answer the question the paper's §3.5
// monitoring loop never had to face — what happens when production
// traffic hits the monitoring host — and to make the answer a CI gate
// rather than an outage.
//
// The driver is open-loop on purpose: arrival times are precomputed from
// the seed before the run starts, so a server that slows down does not
// slow its own offered load the way closed-loop clients do (coordinated
// omission). When the in-flight fleet cannot keep up, arrivals are
// dropped at the feed point and counted — the schedule never stretches.
package loadgen

import (
	"fmt"
	"math"
	"time"

	"frostlab/internal/simkernel"
)

// Phase names one stage of the load profile.
type Phase int

// The four phases: Warmup runs at a quarter of the sustain rate to fill
// caches and pools; Ramp climbs linearly to the sustain rate; Sustain
// holds the rated load; Spike multiplies it to probe overload behaviour.
const (
	Warmup Phase = iota
	Ramp
	Sustain
	Spike
)

// NumPhases is the number of load phases.
const NumPhases = 4

func (p Phase) String() string {
	switch p {
	case Warmup:
		return "warmup"
	case Ramp:
		return "ramp"
	case Sustain:
		return "sustain"
	case Spike:
		return "spike"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Arrival is one scheduled request: an offset from run start, the phase
// it belongs to, and the dashboard path it hits.
type Arrival struct {
	At    time.Duration
	Phase Phase
	Path  string
}

// Schedule precomputes the full open-loop arrival sequence as a pure
// function of the config's seed and shape parameters. Inter-arrival
// times are exponential (Poisson arrivals) at the phase's rate; during
// ramp the rate interpolates linearly, approximated by drawing each gap
// at the instantaneous rate. Paths are drawn from a fixed endpoint mix
// weighted the way scrape fleets actually read a monitoring host: mostly
// /metrics, the rest split across the JSON API.
func (c Config) Schedule() []Arrival {
	c = c.withDefaults()
	rng := simkernel.NewRNG(c.Seed)
	r := rng.PCGStream("loadgen/arrivals")

	warmupRate := c.SustainRate / 4
	if warmupRate < 1 {
		warmupRate = 1
	}
	spikeRate := c.SustainRate * spikeMultiplier

	bounds := [NumPhases]time.Duration{c.Warmup, c.Ramp, c.Sustain, c.Spike}
	var out []Arrival
	var phaseStart time.Duration
	for p := Warmup; p <= Spike; p++ {
		dur := bounds[p]
		end := phaseStart + dur
		t := phaseStart
		for {
			rate := 0.0
			switch p {
			case Warmup:
				rate = warmupRate
			case Ramp:
				frac := float64(t-phaseStart) / float64(dur)
				rate = warmupRate + (c.SustainRate-warmupRate)*frac
			case Sustain:
				rate = c.SustainRate
			case Spike:
				rate = spikeRate
			}
			if rate <= 0 {
				break
			}
			// Exponential gap at the instantaneous rate, in seconds.
			gap := time.Duration(r.ExpFloat64() / rate * float64(time.Second))
			t += gap
			if t >= end {
				break
			}
			out = append(out, Arrival{At: t, Phase: p, Path: c.drawPath(r)})
		}
		phaseStart = end
	}
	return out
}

// drawPath picks the next request's endpoint from the scrape mix.
func (c Config) drawPath(r interface{ Float64() float64 }) string {
	u := r.Float64()
	host := c.hostID(int(math.Floor(r.Float64() * float64(c.Agents))))
	switch {
	case u < 0.55:
		return "/metrics"
	case u < 0.70:
		return "/api/series"
	case u < 0.90:
		return "/api/series/" + host + "/cpu"
	case u < 0.97:
		return "/api/rounds"
	default:
		return "/"
	}
}

// hostID names the i'th simulated agent. Four digits keep 10k-agent
// fleets sortable.
func (c Config) hostID(i int) string {
	if i < 0 {
		i = 0
	}
	if i >= c.Agents {
		i = c.Agents - 1
	}
	return fmt.Sprintf("%04d", i+1)
}
