package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadInput drives inputs campaign must refuse before any
// replicate runs, each with an error that names the problem.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-reps", "0"}, "-reps must be positive"},
		{[]string{"-workers", "-2"}, "-workers must be positive"},
		{[]string{"-workers", "0"}, "-workers must be positive"},
		{[]string{"-days", "-3"}, "-days must not be negative"},
		{[]string{"-grid", "-1h"}, "-grid must be positive"},
		{[]string{"-grid", "0s"}, "-grid must be positive"},
		{[]string{"-bootstrap", "-5"}, "-bootstrap must be positive"},
		{[]string{"-fleets", "0"}, `bad fleet size "0"`},
		{[]string{"-monitors", "garbage"}, `bad monitoring cadence "garbage"`},
		{[]string{"-mods", "banana"}, `bad mods value "banana"`},
	} {
		err := run(append(tc.args, "-checkpoint", ""))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestRunReportsCheckpointFailure points -checkpoint below a regular file,
// where no checkpoint can be written: the campaign still finishes, but run
// must name the failure instead of exiting 0 as if the run could resume.
func TestRunReportsCheckpointFailure(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-reps", "1", "-days", "1", "-workers", "1", "-checkpoint", filepath.Join(file, "ckpt")})
	if err == nil || !strings.Contains(err.Error(), "1 replicate checkpoint(s) not written") {
		t.Fatalf("run = %v, want an error naming the unwritten checkpoint", err)
	}
}
