package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAll runs every workload in a fresh process of this binary, so each
// reports its own peak memory, and prints their metrics as one table. It
// exits non-zero when any workload fails a check or cannot run.
func runAll(seed string, seconds, trace int, artifacts string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadOrder {
		cmd := exec.Command(self, "--workload", name, "--seed", seed,
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--artifacts", artifacts)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		fmt.Print(out.String())
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s printed no result (%v)\n", name, runErr)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && r.Correct && runErr == nil
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, m := range r.Metrics {
			all.Metrics[name+"/"+k] = m
		}
	}
	fmt.Println("\nall workloads:")
	all.print()
	if !all.Correct {
		return 1
	}
	return 0
}
