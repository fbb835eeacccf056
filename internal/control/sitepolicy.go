package control

import (
	"fmt"

	"frostlab/internal/units"
)

// This file extends the control plane from one tent's thermal setpoint to
// fleet-level, objective-driven placement: given N sites — each with its
// own climate, tariff, and safety verdict — a SitePolicy decides where the
// next dispatch tick's tar+bzip2+md5 work-cycles run. The "follow the
// cold" policy is the paper's §5 outlook taken literally: when a site's
// free cooling stops being free (heat, humidity, an expensive grid hour),
// the work moves to wherever the air is cold and the watts are cheap,
// subject to hysteretic holds so price flicker cannot slosh the fleet
// between continents every tick.

// SiteState is one site's observable state at a dispatch tick, assembled
// by the multi-site engine.
type SiteState struct {
	// Intake and IntakeRH are the site enclosure's air state.
	Intake   units.Celsius
	IntakeRH units.RelHumidity
	// Safe is the safety supervisor's verdict: false when the site's
	// intake is outside its allowable envelope or its dew-point guard is
	// latched. Unsafe sites receive no work regardless of policy — safety
	// overrides economics, always.
	Safe bool
	// Capacity is how many work-cycles the site can complete this tick.
	Capacity float64
	// CostPerCycle is the site's marginal cost of one work-cycle at the
	// current grid rates, $ (IT energy plus cube-law ventilation
	// overhead). CarbonPerCycle is the same in gCO₂.
	CostPerCycle   float64
	CarbonPerCycle float64
}

// SitePolicy distributes fleet demand across sites each dispatch tick.
// Implementations keep any scratch state preallocated: Assign must not
// allocate on the warm path.
type SitePolicy interface {
	// Name is the registry key.
	Name() string
	// Assign writes each site's share of demand (in work-cycles) into
	// next, reading prev (last tick's assignment) for hysteresis, and
	// returns the demand it could not place anywhere (shed). len(states),
	// len(prev) and len(next) must all equal the policy's site count.
	Assign(states []SiteState, demand float64, prev, next []float64) float64
}

// PolicyInfo describes one registry entry for -list-policies.
type PolicyInfo struct {
	Name        string
	Description string
}

// Policies enumerates the placement policy registry.
func Policies() []PolicyInfo {
	return []PolicyInfo{
		{Name: "static", Description: "fixed home-site shares (capacity-weighted); unsafe or over-capacity work is shed, never moved"},
		{Name: "follow-cold", Description: fmt.Sprintf("greedy cheapest-$/cycle placement with hysteretic holds (switch margin %.0f%%, hold %d ticks)",
			100*followSwitchMargin, followHoldTicks)},
		{Name: "follow-green", Description: "greedy lowest-gCO₂/cycle placement with the same hysteresis as follow-cold"},
	}
}

// NewSitePolicy builds a registered policy for the given site count.
func NewSitePolicy(name string, sites int) (SitePolicy, error) {
	if sites < 1 {
		return nil, fmt.Errorf("control: policy needs at least one site, got %d", sites)
	}
	switch name {
	case "static":
		return &StaticPolicy{weights: make([]float64, sites)}, nil
	case "follow-cold":
		return NewFollowPolicy(name, sites, func(s *SiteState) float64 { return s.CostPerCycle }), nil
	case "follow-green":
		return NewFollowPolicy(name, sites, func(s *SiteState) float64 { return s.CarbonPerCycle }), nil
	default:
		names := Policies()
		keys := make([]string, len(names))
		for i, p := range names {
			keys[i] = p.Name
		}
		return nil, fmt.Errorf("control: unknown policy %q (have %v)", name, keys)
	}
}

// StaticPolicy is the no-migration baseline: every site keeps a fixed
// share of the fleet's demand, set from the capacity mix observed on the
// first tick (the "home" deployment). A site that is unsafe or short of
// capacity sheds its share — static placement has no machinery to move
// work, which is exactly what makes it the control arm of E17.
type StaticPolicy struct {
	weights []float64
	primed  bool
}

// Name implements SitePolicy.
func (p *StaticPolicy) Name() string { return "static" }

// Assign implements SitePolicy.
func (p *StaticPolicy) Assign(states []SiteState, demand float64, prev, next []float64) float64 {
	if !p.primed {
		var total float64
		for i := range states {
			total += states[i].Capacity
		}
		for i := range states {
			if total > 0 {
				p.weights[i] = states[i].Capacity / total
			} else {
				p.weights[i] = 1 / float64(len(states))
			}
		}
		p.primed = true
	}
	var placed float64
	for i := range states {
		want := demand * p.weights[i]
		if !states[i].Safe {
			next[i] = 0
			continue
		}
		if want > states[i].Capacity {
			want = states[i].Capacity
		}
		next[i] = want
		placed += want
	}
	return demand - placed
}

// Hysteresis of the follow-* policies.
const (
	// followSwitchMargin is the fractional objective improvement a new
	// placement must offer before the policy abandons the current one:
	// move only for a ≥10% cheaper fleet tick. It is the stand-in for
	// real migration friction (state transfer, cache warmup) at ranking
	// level; the engine additionally charges migration energy.
	followSwitchMargin = 0.10
	// followHoldTicks is the minimum number of dispatch ticks between
	// re-rankings (one hour at the 10-minute dispatch tick), the
	// placement-level analogue of DutyCycler's hold.
	followHoldTicks = 6
)

// FollowPolicy places work greedily in ascending objective order (cheapest
// or greenest marginal cycle first), with two dampers against thrash: a
// re-ranking happens at most every followHoldTicks, and only when the
// candidate ranking beats the standing one by followSwitchMargin on this
// tick's states. Safety is NOT hysteretic: an unsafe site is skipped
// immediately whatever the standing order says, and its work flows down
// the order.
type FollowPolicy struct {
	name      string
	objective func(*SiteState) float64

	order    []int // standing fill order, best first
	cand     []int // scratch: candidate order
	score    []float64
	adopted  bool
	holdLeft int
}

// NewFollowPolicy builds a follow-style policy with the given objective.
// The objective maps a site state to marginal cost (lower is better).
func NewFollowPolicy(name string, sites int, objective func(*SiteState) float64) *FollowPolicy {
	return &FollowPolicy{
		name:      name,
		objective: objective,
		order:     make([]int, sites),
		cand:      make([]int, sites),
		score:     make([]float64, sites),
	}
}

// Name implements SitePolicy.
func (p *FollowPolicy) Name() string { return p.name }

// Assign implements SitePolicy.
func (p *FollowPolicy) Assign(states []SiteState, demand float64, prev, next []float64) float64 {
	for i := range states {
		p.score[i] = p.objective(&states[i])
	}
	// Candidate order: indices sorted by score ascending. Insertion sort —
	// site counts are small and this keeps the warm path allocation-free.
	for i := range p.cand {
		p.cand[i] = i
	}
	for i := 1; i < len(p.cand); i++ {
		for j := i; j > 0 && p.score[p.cand[j]] < p.score[p.cand[j-1]]; j-- {
			p.cand[j], p.cand[j-1] = p.cand[j-1], p.cand[j]
		}
	}

	if !p.adopted {
		copy(p.order, p.cand)
		p.adopted = true
		p.holdLeft = followHoldTicks
	} else if p.holdLeft > 0 {
		p.holdLeft--
	} else {
		candCost := p.fillCost(states, demand, p.cand)
		curCost := p.fillCost(states, demand, p.order)
		if candCost < curCost*(1-followSwitchMargin) {
			copy(p.order, p.cand)
			p.holdLeft = followHoldTicks
		}
	}

	remaining := demand
	for i := range next {
		next[i] = 0
	}
	for _, idx := range p.order {
		if remaining <= 0 {
			break
		}
		s := &states[idx]
		if !s.Safe || s.Capacity <= 0 {
			continue
		}
		take := remaining
		if take > s.Capacity {
			take = s.Capacity
		}
		next[idx] = take
		remaining -= take
	}
	if remaining < 0 {
		remaining = 0
	}
	return remaining
}

// fillCost evaluates the total objective of filling demand in the given
// order over safe sites (the greedy fill Assign would perform).
func (p *FollowPolicy) fillCost(states []SiteState, demand float64, order []int) float64 {
	var cost float64
	remaining := demand
	for _, idx := range order {
		if remaining <= 0 {
			break
		}
		s := &states[idx]
		if !s.Safe || s.Capacity <= 0 {
			continue
		}
		take := remaining
		if take > s.Capacity {
			take = s.Capacity
		}
		cost += take * p.score[idx]
		remaining -= take
	}
	return cost
}
