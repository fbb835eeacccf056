package control

import "fmt"

// Damper is the modelled ventilation actuator: a slew-limited mechanism
// tracking a commanded position in [0, 1]. The position maps onto the
// paper's R/I/B/F envelope ladder via thermal.Tent.SetVentilation — 0 is
// the fully closed winter tent, 1 is foil + inner tent removed + bottom
// open + fan. An injected stuck fault (chaos.ActuatorSpec) freezes the
// mechanism; the command is still recorded, which is how the supervisor
// detects a stuck damper.
type Damper struct {
	slew   float64
	actual float64
}

// NewDamper returns a damper at position 0 that can travel at most slew
// (fraction of full range) per control tick.
func NewDamper(slew float64) (*Damper, error) {
	if slew <= 0 || slew > 1 {
		return nil, fmt.Errorf("control: damper slew %v outside (0, 1]", slew)
	}
	return &Damper{slew: slew}, nil
}

// Actual returns the damper's current position.
func (d *Damper) Actual() float64 { return d.actual }

// Step drives the damper toward cmd for one control tick and returns the
// new position. A stuck damper does not move at all.
func (d *Damper) Step(cmd float64, stuck bool) float64 {
	cmd = clamp01(cmd)
	if stuck {
		return d.actual
	}
	s := d.slew
	delta := cmd - d.actual
	switch {
	case delta > s:
		d.actual += s
	case delta < -s:
		d.actual -= s
	default:
		// Within one tick's travel: land exactly on the command, so the
		// position does not accumulate float residue around setpoints.
		d.actual = cmd
	}
	return d.actual
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// DutyLevel is the thermal duty-cycling state of the tent arm's workload.
type DutyLevel int

// Duty levels, ordered by aggressiveness. DutyBoost raises the workload
// duty cycle to use the servers as heaters when the damper alone cannot
// keep the tent warm (the paper's observation that the hardware's own
// dissipation is the only heat source). DutyThrottle sheds load when the
// damper is already fully open and the tent still overheats; DutyMigrate
// additionally moves the tent hosts' cycles onto their basement twins.
const (
	DutyNormal DutyLevel = iota
	DutyBoost
	DutyThrottle
	DutyMigrate
)

// NumDutyLevels is the number of duty levels (for per-level accounting).
const NumDutyLevels = 4

func (l DutyLevel) String() string {
	switch l {
	case DutyNormal:
		return "normal"
	case DutyBoost:
		return "boost"
	case DutyThrottle:
		return "throttle"
	case DutyMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("DutyLevel(%d)", int(l))
	}
}

// DutyCycler applies a minimum-hold policy to duty level changes: a level
// switch is honoured only after the current level has been held for Hold
// ticks, so a temperature flicker around a threshold cannot thrash the
// fleet between load levels.
type DutyCycler struct {
	hold    int
	level   DutyLevel
	held    int
	changes int
}

// NewDutyCycler returns a cycler at DutyNormal with the given minimum hold
// (ticks; values below 1 mean no hold).
func NewDutyCycler(hold int) *DutyCycler {
	if hold < 1 {
		hold = 1
	}
	return &DutyCycler{hold: hold, held: hold} // free to switch immediately
}

// Level returns the current duty level.
func (dc *DutyCycler) Level() DutyLevel { return dc.level }

// Changes returns how many level transitions have been applied.
func (dc *DutyCycler) Changes() int { return dc.changes }

// Step requests a duty level for this tick and returns the level actually
// in force after the minimum-hold policy.
func (dc *DutyCycler) Step(want DutyLevel) DutyLevel {
	if want != dc.level && dc.held >= dc.hold {
		dc.level = want
		dc.held = 0
		dc.changes++
	}
	dc.held++
	return dc.level
}
