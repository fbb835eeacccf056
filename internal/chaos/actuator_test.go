package chaos

import (
	"testing"
)

func TestActuatorSpecValidate(t *testing.T) {
	good := []ActuatorSpec{
		{},
		{Stuck: map[string][]RoundRange{"damper": {{From: 3, To: 9}}}},
		{Stuck: map[string][]RoundRange{"damper": {{From: 1}}}}, // open end
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
	bad := []ActuatorSpec{
		{Stuck: map[string][]RoundRange{"damper": {{From: 0, To: 2}}}},
		{Stuck: map[string][]RoundRange{"damper": {{From: 5, To: 2}}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad case %d validated", i)
		}
	}
}

func TestActuatorScriptedWindows(t *testing.T) {
	spec := ActuatorSpec{
		Stuck: map[string][]RoundRange{"damper": {{From: 5, To: 8}, {From: 12, To: 0}}},
	}
	for tick := 1; tick <= 20; tick++ {
		want := (tick >= 5 && tick <= 8) || tick >= 12
		if got := spec.StuckAt("damper", tick); got != want {
			t.Errorf("tick %d: stuck %v, want %v", tick, got, want)
		}
		if spec.StuckAt("fan", tick) {
			t.Errorf("tick %d: unscripted actuator stuck", tick)
		}
	}
}
