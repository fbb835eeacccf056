package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadInput drives inputs tentsim must refuse before it
// simulates anything, each with an error that names the problem.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-tents", "-2"}, "-tents must not be negative"},
		{[]string{"-days", "0"}, "-days must be positive"},
		{[]string{"-power", "-1"}, "-power must be non-negative"},
		{[]string{"-tents", "2", "-mods", "R"}, "-mods does not apply with -tents"},
		{[]string{"-mods", "X"}, `unknown modification "X"`},
		{[]string{"-tents", "1", "-hosts-per-tent", "0"}, "positive tents"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
