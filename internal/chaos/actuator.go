package chaos

import "fmt"

// Actuator fault scripting: the control plane's counterpart to the
// monitoring-plane connection faults. A real damper motor sticks or ices
// over in the cold; the §5 "automated airflow management" the paper asks
// for is only production-grade if the control loop survives its own
// actuators. Faults are scripted windows, exactly like the connection
// injector's Down/Stalled schedules, so a run replays bit for bit.

// ActuatorSpec scripts actuator faults.
type ActuatorSpec struct {
	// Stuck scripts, per actuator name, the windows in which the actuator
	// stays frozen at its position whatever it is commanded: inclusive
	// 1-based control-tick ranges (RoundRange reused with ticks in place
	// of rounds).
	Stuck map[string][]RoundRange
}

// Validate checks the spec's windows.
func (s ActuatorSpec) Validate() error {
	for name, ranges := range s.Stuck {
		for _, rr := range ranges {
			if rr.From < 1 || (rr.To != 0 && rr.To < rr.From) {
				return fmt.Errorf("chaos: bad stuck range %+v for actuator %s", rr, name)
			}
		}
	}
	return nil
}

// StuckAt reports whether the named actuator is stuck at the given
// control tick (1-based).
func (s ActuatorSpec) StuckAt(name string, tick int) bool {
	return inRanges(s.Stuck[name], tick)
}
