package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadInput drives inputs frostctl must refuse before any
// simulation starts, each with an error that names the problem.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-phase", "bogus"}, `unknown -phase "bogus"`},
		{[]string{"-tents", "2", "-phase", "control"}, "-tents only applies to the normal phase"},
		{[]string{"-tents", "-1"}, "-tents must not be negative"},
		{[]string{"-days", "-3"}, "-days must not be negative"},
		{[]string{"-phase", "chaos", "-down", "03=5-2"}, "bad down range"},
		{[]string{"-phase", "chaos", "-down", "=1"}, `bad schedule entry "=1"`},
		{[]string{"-phase", "chaos", "-down", "03=a-2"}, `bad schedule entry "03=a-2"`},
		{[]string{"-phase", "serve", "-serve-agents", "0"}, "-serve-agents must be positive"},
		{[]string{"-phase", "serve", "-serve-scrapers", "0"}, "-serve-scrapers must be positive"},
		{[]string{"-phase", "serve", "-serve-rate", "0"}, "-serve-rate must be positive"},
		{[]string{"-phase", "serve", "-serve-inflight", "0"}, "-serve-inflight must be positive"},
		{[]string{"-phase", "serve", "-serve-queue", "0"}, "-serve-queue must be positive"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
