package failure

import (
	"fmt"
	"testing"
	"time"

	"frostlab/internal/simkernel"
)

func TestDiskParamsValidation(t *testing.T) {
	if err := DefaultDiskParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := DefaultDiskParams()
	bad.BasePerHour = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative base hazard accepted")
	}
}

func TestStepDiskValidation(t *testing.T) {
	e := newEngine(t, "disk-validate")
	if _, err := e.StepDisk(0, "01/0", 30, DefaultDiskParams()); err == nil {
		t.Error("zero step accepted")
	}
	bad := DefaultDiskParams()
	bad.HotPerDegree = -1
	if _, err := e.StepDisk(time.Hour, "01/0", 30, bad); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestDisksRarelyDieInThreeMonths(t *testing.T) {
	// The paper's fleet (~35k disk-hours) saw zero drive deaths; the
	// default hazard must make that the typical outcome.
	e := newEngine(t, "disk-rare")
	deaths := 0
	p := DefaultDiskParams()
	for d := 0; d < 42; d++ { // the fleet's ~42 drives
		id := fmt.Sprintf("h/%d", d)
		for at := t0; at.Before(t0.AddDate(0, 3, 0)); at = at.Add(time.Hour) {
			died, err := e.StepDisk(time.Hour, id, 30, p)
			if err != nil {
				t.Fatal(err)
			}
			if died {
				deaths++
				break
			}
		}
	}
	if deaths > 2 {
		t.Errorf("%d drive deaths in a fleet-quarter; paper saw 0, expectation ≈ 0.2", deaths)
	}
}

func TestHotDrivesDieFaster(t *testing.T) {
	p := DefaultDiskParams()
	benign := p.HazardPerHour(30)
	hot := p.HazardPerHour(60)
	if hot <= benign {
		t.Errorf("hot hazard %v not above benign %v", hot, benign)
	}
	// Cold adds only a mild penalty — §4's finding extends to drives.
	cold := p.HazardPerHour(-20)
	if cold <= benign {
		t.Errorf("deep-cold hazard %v not above benign %v", cold, benign)
	}
	if cold >= hot {
		t.Errorf("cold penalty %v should stay below heat penalty %v", cold, hot)
	}
}

func TestStepDiskLogsHardFailure(t *testing.T) {
	// Inflate the hazard so a death happens promptly, then check that it
	// was drawn from the drive's own "disk/<id>" stream: a bare RNG on
	// the same seed, drawing that stream at the same probability, must
	// see the death on the same hour.
	e := newEngine(t, "disk-log")
	p := DefaultDiskParams()
	p.BasePerHour = 0.5
	rng := simkernel.NewRNG("disk-log")
	pFail := 1 - expNeg(p.HazardPerHour(35))
	for hour := 0; hour < 100; hour++ {
		died, err := e.StepDisk(time.Hour, "15/0", 35, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := rng.Bernoulli("disk/15/0", pFail); died != want {
			t.Fatalf("hour %d: StepDisk died=%v, disk/15/0 stream says %v", hour, died, want)
		}
		if died {
			return
		}
	}
	t.Fatal("no death at 0.5/h hazard over 100h")
}

func TestStepDiskDeterministic(t *testing.T) {
	run := func() int {
		e, err := NewEngine(DefaultParams(), simkernel.NewRNG("disk-det"))
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultDiskParams()
		p.BasePerHour = 0.05
		n := 0
		for hour := 0; hour < 200; hour++ {
			if died, _ := e.StepDisk(time.Hour, "x/0", 30, p); died {
				n++
			}
		}
		return n
	}
	if a, b := run(), run(); a != b {
		t.Errorf("disk sampling not deterministic: %d vs %d", a, b)
	}
}
