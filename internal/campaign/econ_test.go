package campaign

import (
	"testing"
)

// smallEconSpec keeps sweep tests fast: one week, two fleets, all
// policies, both default price regimes.
func smallEconSpec(seed string) EconSpec {
	s := DefaultEconSpec(seed)
	s.Days = 7
	s.HostsPerSite = 6
	return s
}

func TestEconSweepShape(t *testing.T) {
	spec := smallEconSpec("econ-sweep")
	var calls int
	spec.Progress = func(done, total int, cell *EconCell) {
		calls++
		if done != calls || total != 12 || cell == nil {
			t.Fatalf("progress callback inconsistent: done=%d calls=%d total=%d", done, calls, total)
		}
	}
	sum, err := RunEcon(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 3 policies x 2 sets x 2 tariff regimes.
	if len(sum.Cells) != 12 || calls != 12 {
		t.Fatalf("expected 12 cells, got %d (callbacks %d)", len(sum.Cells), calls)
	}
	labels := map[string]bool{}
	for i := range sum.Cells {
		c := &sum.Cells[i]
		if labels[c.Label] {
			t.Fatalf("duplicate cell label %q", c.Label)
		}
		labels[c.Label] = true
		if c.Result == nil || c.Result.Ticks == 0 {
			t.Fatalf("cell %s has no result", c.Label)
		}
		if len(c.Result.Sites) != 3 {
			t.Fatalf("cell %s has %d sites, want 3", c.Label, len(c.Result.Sites))
		}
		if c.Result.Policy != c.Policy {
			t.Fatalf("cell %s ran policy %s", c.Label, c.Result.Policy)
		}
	}
	if sum.Cell("follow-cold", "continental", "paired") == nil {
		t.Fatal("headline cell missing from sweep")
	}
	if sum.Cell("nope", "continental", "paired") != nil {
		t.Fatal("Cell invented a result")
	}
}

// TestEconSweepDeterminism: the whole sweep digests identically across
// independent runs, and a different seed diverges.
func TestEconSweepDeterminism(t *testing.T) {
	run := func(seed string) string {
		sum, err := RunEcon(smallEconSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		return sum.Digest()
	}
	if d1, d2 := run("det"), run("det"); d1 != d2 {
		t.Fatalf("sweep digest unstable: %s vs %s", d1, d2)
	}
	if run("det") == run("det-2") {
		t.Fatal("different seeds produced identical sweeps")
	}
}

// TestEconCommonRandomNumbers: cells differing only in policy share
// weather and tariff sample paths — same seed string, so the static and
// follow-cold cells see identical per-site price traces.
func TestEconCommonRandomNumbers(t *testing.T) {
	sum, err := RunEcon(smallEconSpec("crn"))
	if err != nil {
		t.Fatal(err)
	}
	a := sum.Cell("static", "continental", "paired")
	b := sum.Cell("follow-cold", "continental", "paired")
	if a == nil || b == nil {
		t.Fatal("missing cells")
	}
	if a.Result.Seed != b.Result.Seed {
		t.Fatalf("policy cells drew different seeds: %q vs %q", a.Result.Seed, b.Result.Seed)
	}
	for i := range a.Result.Sites {
		pa, pb := a.Result.Sites[i].Price, b.Result.Sites[i].Price
		if len(pa) != len(pb) {
			t.Fatal("price trace lengths differ")
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("site %d tick %d price diverged across policies: %v vs %v",
					i, j, pa[j], pb[j])
			}
		}
	}
}

// TestEconFollowColdAdvantage: the E17 headline at sweep scale —
// follow-cold beats static on cost per cycle in at least one cell.
func TestEconFollowColdAdvantage(t *testing.T) {
	sum, err := RunEcon(smallEconSpec("adv"))
	if err != nil {
		t.Fatal(err)
	}
	keys, adv := sum.Advantage("follow-cold", "static")
	if len(keys) != 4 {
		t.Fatalf("expected 4 comparable (set, tariff) pairs, got %d", len(keys))
	}
	won := 0
	for _, k := range keys {
		if adv[k] > 0 {
			won++
		}
	}
	if won == 0 {
		t.Fatalf("follow-cold never beat static on $/cycle: %v", adv)
	}
}

func TestEconSpecValidate(t *testing.T) {
	good := smallEconSpec("v")
	if err := good.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	bad := []EconSpec{
		{Seed: ""},
		{Seed: "x", Days: -1},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	// Every fixed-axis climate has a paired tariff, so every cell builds.
	for _, set := range econSets {
		for _, c := range set.climates {
			if pairing[c] == "" {
				t.Errorf("set %s: climate %s has no paired tariff", set.name, c)
			}
		}
	}
}
