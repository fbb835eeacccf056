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
		{[]string{"-days", "0"}, "-days must be positive"},
		{[]string{"-power", "-1"}, "-power must be non-negative"},
		{[]string{"-mods", "X"}, `unknown modification "X"`},
		{[]string{"-tents", "2"}, "flag provided but not defined: -tents"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
