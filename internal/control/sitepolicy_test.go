package control

import (
	"math"
	"testing"
)

func mkStates(cost ...float64) []SiteState {
	out := make([]SiteState, len(cost))
	for i, c := range cost {
		out[i] = SiteState{Safe: true, Capacity: 10, CostPerCycle: c, CarbonPerCycle: c * 1000}
	}
	return out
}

func TestPolicyRegistry(t *testing.T) {
	infos := Policies()
	if len(infos) != 3 {
		t.Fatalf("want 3 policies, got %d", len(infos))
	}
	for _, pi := range infos {
		p, err := NewSitePolicy(pi.Name, 3)
		if err != nil {
			t.Fatalf("%s: %v", pi.Name, err)
		}
		if p.Name() != pi.Name {
			t.Errorf("policy %q reports name %q", pi.Name, p.Name())
		}
		if pi.Description == "" {
			t.Errorf("%s has no description", pi.Name)
		}
	}
	if _, err := NewSitePolicy("chase-the-sun", 3); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := NewSitePolicy("static", 0); err == nil {
		t.Fatal("zero sites accepted")
	}
}

// TestStaticHomesAndSheds: static splits by first-tick capacity and sheds
// an unsafe site's share instead of rerouting it.
func TestStaticHomesAndSheds(t *testing.T) {
	p, _ := NewSitePolicy("static", 3)
	states := []SiteState{
		{Safe: true, Capacity: 20},
		{Safe: true, Capacity: 10},
		{Safe: true, Capacity: 10},
	}
	prev := make([]float64, 3)
	next := make([]float64, 3)
	shed := p.Assign(states, 8, prev, next)
	if shed != 0 {
		t.Fatalf("all-safe fleet shed %v", shed)
	}
	if math.Abs(next[0]-4) > 1e-9 || math.Abs(next[1]-2) > 1e-9 || math.Abs(next[2]-2) > 1e-9 {
		t.Fatalf("capacity-weighted split wrong: %v", next)
	}

	// Site 0 goes unsafe: its 50% share is shed, NOT moved.
	states[0].Safe = false
	copy(prev, next)
	shed = p.Assign(states, 8, prev, next)
	if next[0] != 0 {
		t.Fatalf("unsafe site still assigned %v", next[0])
	}
	if math.Abs(shed-4) > 1e-9 {
		t.Fatalf("static should shed the unsafe share (4), shed %v", shed)
	}
	if math.Abs(next[1]-2) > 1e-9 || math.Abs(next[2]-2) > 1e-9 {
		t.Fatalf("safe sites' shares should not change: %v", next)
	}
}

// TestFollowColdRoutesAroundUnsafe: follow-cold places demand on the
// cheapest safe sites and reroutes work a static fleet would shed.
func TestFollowColdRoutesAroundUnsafe(t *testing.T) {
	p, _ := NewSitePolicy("follow-cold", 3)
	states := mkStates(0.05, 0.02, 0.09)
	prev := make([]float64, 3)
	next := make([]float64, 3)

	shed := p.Assign(states, 15, prev, next)
	if shed != 0 {
		t.Fatalf("shed %v with ample capacity", shed)
	}
	// Cheapest site (1) fills to capacity 10, next cheapest (0) takes 5.
	if next[1] != 10 || next[0] != 5 || next[2] != 0 {
		t.Fatalf("greedy fill wrong: %v", next)
	}

	// Cheapest site goes unsafe: its work moves immediately (safety is not
	// hysteretic), landing on sites 0 then 2.
	states[1].Safe = false
	copy(prev, next)
	shed = p.Assign(states, 15, prev, next)
	if next[1] != 0 {
		t.Fatalf("unsafe site still assigned %v", next[1])
	}
	if shed != 0 || next[0] != 10 || next[2] != 5 {
		t.Fatalf("work not rerouted: next %v, shed %v", next, shed)
	}

	// Demand beyond total safe capacity sheds the remainder.
	shed = p.Assign(states, 50, next, next)
	if math.Abs(shed-30) > 1e-9 {
		t.Fatalf("want shed 30 over capacity 20, got %v", shed)
	}
}

// TestFollowHysteresis: a small price advantage does not move the fleet;
// a large one does, but only after the hold expires, and the re-ranking
// then holds again.
func TestFollowHysteresis(t *testing.T) {
	p := NewFollowPolicy("follow-cold", 2, func(s *SiteState) float64 { return s.CostPerCycle })
	states := mkStates(0.05, 0.06)
	prev := make([]float64, 2)
	next := make([]float64, 2)

	p.Assign(states, 10, prev, next)
	if next[0] != 10 {
		t.Fatalf("initial placement should prefer site 0: %v", next)
	}

	// Site 1 becomes 5% cheaper — inside the 10% margin, placement holds
	// even after the hold passes.
	states[0].CostPerCycle, states[1].CostPerCycle = 0.060, 0.057
	for i := 0; i < 2*followHoldTicks; i++ {
		copy(prev, next)
		p.Assign(states, 10, prev, next)
	}
	if next[0] != 10 {
		t.Fatalf("placement moved inside the switch margin: %v", next)
	}

	// Site 1 becomes 50% cheaper — placement must move once the hold is
	// spent.
	states[1].CostPerCycle = 0.03
	moved := false
	for i := 0; i < followHoldTicks+1; i++ {
		copy(prev, next)
		p.Assign(states, 10, prev, next)
		if next[1] == 10 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatalf("placement never followed a 50%% price advantage: %v", next)
	}

	// Immediately flipping the prices back cannot bounce the fleet: the
	// fresh hold pins it.
	states[0].CostPerCycle, states[1].CostPerCycle = 0.03, 0.06
	copy(prev, next)
	p.Assign(states, 10, prev, next)
	if next[1] != 10 {
		t.Fatalf("hold violated: fleet bounced straight back: %v", next)
	}
}

// TestFollowGreenUsesCarbon: follow-green ranks by carbon even when the
// price ordering disagrees.
func TestFollowGreenUsesCarbon(t *testing.T) {
	p, _ := NewSitePolicy("follow-green", 2)
	states := []SiteState{
		{Safe: true, Capacity: 10, CostPerCycle: 0.01, CarbonPerCycle: 900},
		{Safe: true, Capacity: 10, CostPerCycle: 0.20, CarbonPerCycle: 50},
	}
	prev := make([]float64, 2)
	next := make([]float64, 2)
	p.Assign(states, 10, prev, next)
	if next[1] != 10 {
		t.Fatalf("follow-green should pick the clean expensive site: %v", next)
	}
}

// TestAssignAllocFree: the warm dispatch path of every policy stays
// allocation-free, matching the engine's 0-alloc tick budget.
func TestAssignAllocFree(t *testing.T) {
	for _, name := range []string{"static", "follow-cold", "follow-green"} {
		p, err := NewSitePolicy(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		states := mkStates(0.05, 0.02, 0.09, 0.04)
		prev := make([]float64, 4)
		next := make([]float64, 4)
		p.Assign(states, 25, prev, next) // prime
		avg := testing.AllocsPerRun(200, func() {
			copy(prev, next)
			states[1].CostPerCycle += 0.001 // keep the ranking busy
			p.Assign(states, 25, prev, next)
		})
		if avg != 0 {
			t.Errorf("%s: %v allocs per Assign, want 0", name, avg)
		}
	}
}
