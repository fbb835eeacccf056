package main

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"frostlab/internal/core"
)

// econSweepDigest is the E17 sweep's replay identity at the committed
// configuration.
const econSweepDigest = "78230808af470362704333dd269cb66b"

// TestAlertsStudyMatchesCommittedReport runs E16 at the committed
// configuration: it must pass its gate against BENCH_ALERTS.json and
// reproduce every class's incident timeline digest.
func TestAlertsStudyMatchesCommittedReport(t *testing.T) {
	ref := mustReadReference[alertsBench](t, "../../BENCH_ALERTS.json")
	got, err := alertsStudy(ref.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := gateAlerts(got, ref); err != nil {
		t.Fatal(err)
	}
	if len(got.Classes) != len(ref.Classes) {
		t.Fatalf("%d classes, reference has %d", len(got.Classes), len(ref.Classes))
	}
	for i, c := range got.Classes {
		if want := ref.Classes[i].TimelineDigest; c.Class != ref.Classes[i].Class || c.TimelineDigest != want {
			t.Errorf("class %d: %s timeline digest %s, reference %s %s",
				i, c.Class, c.TimelineDigest, ref.Classes[i].Class, want)
		}
	}
}

// TestEconStudyMatchesCommittedReport runs E17 at the committed
// configuration: it must pass its gate against BENCH_ECON.json and
// reproduce the sweep digest and every cell's digest.
func TestEconStudyMatchesCommittedReport(t *testing.T) {
	ref := mustReadReference[econBench](t, "../../BENCH_ECON.json")
	if ref.Days != econDays || ref.HostsPerSite != econHosts {
		t.Fatalf("reference ran %d days × %d hosts/site, the study runs %d × %d",
			ref.Days, ref.HostsPerSite, econDays, econHosts)
	}
	got, _, err := econStudy(ref.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := gateEcon(got, ref); err != nil {
		t.Fatal(err)
	}
	if got.SweepDigest != econSweepDigest || ref.SweepDigest != econSweepDigest {
		t.Errorf("sweep digest %s (reference file %s), want %s", got.SweepDigest, ref.SweepDigest, econSweepDigest)
	}
	if len(got.Cells) != len(ref.Cells) {
		t.Fatalf("%d cells, reference has %d", len(got.Cells), len(ref.Cells))
	}
	for i, c := range got.Cells {
		if want := ref.Cells[i].Digest; c.Digest != want {
			t.Errorf("cell %s/%s/%s digest %s, reference %s", c.Policy, c.Set, c.Tariff, c.Digest, want)
		}
	}
}

func mustReadReference[T any](t *testing.T, path string) *T {
	t.Helper()
	ref, err := readReference[T](path)
	if err != nil {
		t.Fatal(err)
	}
	if ref == nil {
		t.Fatalf("%s is missing", path)
	}
	return ref
}

// TestControlStudyTable pins the E14 table at the reference seed: the
// default run, and a damper stuck from control tick 2000 to the end.
func TestControlStudyTable(t *testing.T) {
	type want struct {
		scenario, arm string
		envelope      string // residency, as the table prints it
		samples       int
		kWh           string
		fallback      int
	}
	for _, tc := range []struct {
		args []string
		rows []want
	}{
		{nil, []want{
			{"winter0910", "open-loop", "44.9", 9982, "636", 0},
			{"winter0910", "closed-loop", "66.6", 9999, "694", 0},
			{"springmelt", "open-loop", "74.1", 23947, "2010", 0},
			{"springmelt", "closed-loop", "85.9", 23982, "2069", 0},
		}},
		{[]string{"-control-stuck", "2000-"}, []want{
			{"winter0910", "open-loop", "44.9", 9982, "636", 0},
			{"winter0910", "closed-loop", "66.7", 10004, "694", 4887},
			{"springmelt", "open-loop", "74.1", 23947, "2010", 0},
			{"springmelt", "closed-loop", "78.7", 24017, "2069", 18999},
		}},
	} {
		fs := flag.NewFlagSet("control", flag.ContinueOnError)
		co := controlFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		rows, _, err := controlStudy(core.ReferenceSeed, co)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(tc.rows) {
			t.Fatalf("%q: %d rows, want %d", tc.args, len(rows), len(tc.rows))
		}
		for i, r := range rows {
			got := want{r.Scenario, r.Arm, fmt.Sprintf("%.1f", 100*r.EnvelopeFraction),
				r.Samples, fmt.Sprintf("%.0f", r.TentEnergyKWh), r.FallbackTicks}
			if got != tc.rows[i] || r.GuardTrips != 0 {
				t.Errorf("%q row %d: %+v (guard trips %d), want %+v", tc.args, i, got, r.GuardTrips, tc.rows[i])
			}
		}
	}
}

// TestChaosStudyTable pins the E13 table: the default run at the
// reference seed, where retries absorb every injected fault, and the
// EXPERIMENTS.md run with host 03 down for rounds 2-5 and host 07
// stalled from round 4 on.
func TestChaosStudyTable(t *testing.T) {
	full := strings.Repeat("1.0000\n", 12)
	for _, tc := range []struct {
		seed, down, stalled string
		rounds, ledger      string
	}{
		{core.ReferenceSeed, "", "", full, `gap ledger: 12 rounds, fleet coverage 1.0000
  01: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  02: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  03: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  04: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  05: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  06: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  07: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  08: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  09: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
`},
		{"winter0910", "03=2-5", "07=4-", `1.0000
0.8889 03 failed (3 attempts)
0.8889 03 failed (3 attempts)
0.7778 03 skipped, 07 failed (3 attempts)
0.7778 03 skipped, 07 failed (3 attempts)
0.8889 07 skipped
0.8889 07 skipped
0.8889 07 failed (1 attempts)
0.8889 07 skipped
0.8889 07 skipped
0.8889 07 failed (1 attempts)
0.8889 07 skipped
`, `gap ledger: 12 rounds, fleet coverage 0.8796
  01: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  02: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  03: 8/12 collected (0.6667), 2 skipped, longest outage 4, missed [2 3 4 5]
  04: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  05: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  06: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  07: 3/12 collected (0.2500), 5 skipped, longest outage 9, missed [4 5 6 7 8 9 10 11 12]
  08: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
  09: 12/12 collected (1.0000), 0 skipped, longest outage 0, missed []
`},
	} {
		rows, ledger, err := chaosStudy(tc.seed, tc.down, tc.stalled, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range rows {
			sb.WriteString(strings.TrimSpace(fmt.Sprintf("%.4f %s", r.Coverage, strings.Join(r.Notes, ", "))) + "\n")
		}
		if got := sb.String(); got != tc.rounds {
			t.Errorf("seed %q down %q stalled %q: rounds\n%s\nwant\n%s", tc.seed, tc.down, tc.stalled, got, tc.rounds)
		}
		if ledger != tc.ledger {
			t.Errorf("seed %q down %q stalled %q: ledger\n%s\nwant\n%s", tc.seed, tc.down, tc.stalled, ledger, tc.ledger)
		}
	}
}
