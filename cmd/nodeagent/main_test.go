package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadFlags drives flag values nodeagent must refuse before
// it packs its archive or listens, each with an error that names the flag.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cycle", "0s"}, "-cycle must be positive"},
		{[]string{"-cycle", "-1m"}, "-cycle must be positive"},
		{[]string{"-cycles", "-1"}, "-cycles must not be negative"},
		{[]string{"-max-sessions", "-1"}, "-max-sessions must not be negative"},
		{[]string{"-cycle", "banana"}, `invalid value "banana" for flag -cycle`},
		{nil, "-id is required"},
	} {
		err := run(append(tc.args, "-listen", "127.0.0.1:0"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
