package main

import "testing"

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
