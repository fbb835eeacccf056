package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadFlags drives flag values collectord must refuse before
// it dials an agent or listens, each with an error that names the flag.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-every", "0s"}, "-every must be positive"},
		{[]string{"-every", "-20m"}, "-every must be positive"},
		{[]string{"-rounds", "-1"}, "-rounds must not be negative"},
		{[]string{"-retries", "0"}, "-retries must be at least 1, got 0"},
		{[]string{"-ingest-queue", "0"}, "-ingest-queue must be at least 1, got 0"},
		{[]string{"-max-inflight", "0"}, "-max-inflight must be at least 1, got 0"},
		{[]string{"-max-inflight", "-4"}, "-max-inflight must be at least 1, got -4"},
		{[]string{"-every", "soon"}, `invalid value "soon" for flag -every`},
		{[]string{"-hosts", ""}, "-hosts is required"},
		{[]string{"-hosts", "01"}, `bad -hosts entry "01"`},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
