package report

import (
	"strings"
	"testing"

	"frostlab/internal/campaign"
)

func econSummary(t *testing.T) *campaign.EconSummary {
	t.Helper()
	spec := campaign.DefaultEconSpec("report-econ")
	spec.Days = 4
	spec.HostsPerSite = 6
	sum, err := campaign.RunEcon(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestEconReport(t *testing.T) {
	sum := econSummary(t)
	out, err := Econ(sum)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"E17 economics study", "$/cycle", "gCO2/cycle",
		"follow-cold", "static", "vs static",
		"Headline cell follow-cold/continental/paired",
		"helsinki", "desert", "tropical",
		"Assigned work-cycles per site",
		"envelope", "guard trips",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("econ report missing %q", want)
		}
	}
	// Deterministic rendering: same summary, same bytes.
	again, err := Econ(sum)
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Fatal("econ report renders unstably")
	}
}

func TestEconFigures(t *testing.T) {
	sum := econSummary(t)
	cell := sum.Cell("follow-cold", "continental", "paired")
	if cell == nil {
		t.Fatal("missing headline cell")
	}
	fig, err := FigEconSite(cell.Result, "desert")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig, "desert (desert on solar-duck)") {
		t.Errorf("site figure missing caption: %q", firstLine(fig))
	}
	if _, err := FigEconSite(cell.Result, "atlantis"); err == nil {
		t.Fatal("unknown site accepted")
	}
	if _, err := FigEconAssignment(cell.Result); err != nil {
		t.Fatal(err)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
