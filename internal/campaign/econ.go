package campaign

import (
	"crypto/md5"
	"fmt"
	"io"
	"sort"
	"strings"

	"frostlab/internal/control"
	"frostlab/internal/core"
)

// Econ sweep: the E17 study's engine. A sweep cell is one multi-site run
// — a fleet of sites (one per climate family in the set) under one
// placement policy and one price regime. The cross product
// policy × climate-set × price-regime is expanded deterministically, each
// cell seeded from the spec seed WITHOUT the policy (common random
// numbers: policies compete on identical weather and tariff sample
// paths), and the whole sweep digests to a single replay identity.

// siteSet is one value of the climate axis: a named fleet composition,
// one site per climate family.
type siteSet struct {
	// name labels the set in cells and tables.
	name string
	// climates are scenario-library family names; each becomes a site.
	climates []string
}

// pairedTariff is the price-regime value meaning "each climate keeps its
// geographically paired tariff" (Helsinki on hydro, desert on a solar
// duck curve, and so on) rather than a uniform tariff across the fleet.
const pairedTariff = "paired"

// pairing maps each climate family to the tariff its geography suggests.
var pairing = map[string]string{
	"helsinki":    "nordic-hydro",
	"desert":      "solar-duck",
	"tropical":    "coal-peaker",
	"coastal-fog": "solar-duck",
	"monsoon":     "coal-peaker",
}

// The sweep's fixed axes besides policy (every registered
// control.Policies entry): two fleets and two price regimes. "paired"
// keeps each climate's geographic tariff; "flat" applies the flat tariff
// fleet-wide.
var (
	econSets = []siteSet{
		{name: "continental", climates: []string{"helsinki", "desert", "tropical"}},
		{name: "coastal", climates: []string{"helsinki", "coastal-fog", "monsoon"}},
	}
	econTariffs = []string{pairedTariff, "flat"}
)

// EconSpec configures an econ sweep.
type EconSpec struct {
	// Seed is the master seed. Weather and tariff streams derive from it
	// plus the cell's set and regime — but not its policy, so policies
	// face identical sample paths.
	Seed string
	// Days is each cell's horizon; 0 selects 28.
	Days int
	// HostsPerSite sizes every site; 0 selects 9.
	HostsPerSite int
	// Progress, when non-nil, is called after each completed cell.
	Progress func(done, total int, cell *EconCell)
}

// DefaultEconSpec is the full E17 sweep: every policy over two fleets and
// two price regimes, 28 days.
func DefaultEconSpec(seed string) EconSpec {
	return EconSpec{Seed: seed}
}

func (s *EconSpec) withDefaults() EconSpec {
	out := *s
	if out.Days == 0 {
		out.Days = 28
	}
	if out.HostsPerSite == 0 {
		out.HostsPerSite = 9
	}
	return out
}

// Validate rejects specs that would build invalid cells.
func (s *EconSpec) Validate() error {
	if s.Seed == "" {
		return fmt.Errorf("campaign: econ spec needs a seed")
	}
	if s.Days < 0 {
		return fmt.Errorf("campaign: econ horizon %d days out of range", s.Days)
	}
	return nil
}

// EconCell is one completed cell of the sweep.
type EconCell struct {
	// Policy, Set, and Tariff name the cell's axes; Label joins them.
	Policy string
	Set    string
	Tariff string
	Label  string
	// Result is the cell's full multi-site outcome.
	Result *core.FleetResult
}

// EconSummary is a finished econ sweep.
type EconSummary struct {
	Seed  string
	Days  int
	Cells []EconCell
}

// Digest hashes every cell's replay digest (with its label) into the
// sweep's replay identity: the quantity the CI econ gate double-runs.
func (s *EconSummary) Digest() string {
	h := md5.New()
	for i := range s.Cells {
		c := &s.Cells[i]
		io.WriteString(h, c.Label)
		io.WriteString(h, "=")
		io.WriteString(h, c.Result.Digest())
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Cell returns the cell with the given axes, or nil.
func (s *EconSummary) Cell(policy, set, tariff string) *EconCell {
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Policy == policy && c.Set == set && c.Tariff == tariff {
			return c
		}
	}
	return nil
}

// Advantage reports, for each (set, tariff) pair, the cost-per-cycle edge
// of the named policy over the baseline: positive means the policy is
// cheaper. Pairs missing either cell are skipped. Keys are
// "set/tariff", returned sorted for stable iteration.
func (s *EconSummary) Advantage(policy, baseline string) ([]string, map[string]float64) {
	out := map[string]float64{}
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Policy != policy {
			continue
		}
		b := s.Cell(baseline, c.Set, c.Tariff)
		if b == nil {
			continue
		}
		out[c.Set+"/"+c.Tariff] = b.Result.CostPerCycle() - c.Result.CostPerCycle()
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, out
}

// econConfig builds one cell's MultiSiteConfig. The seed folds in the set
// and tariff regime but deliberately not the policy.
func (s *EconSpec) econConfig(set siteSet, tariff, policy string) core.MultiSiteConfig {
	cfg := core.DefaultMultiSiteConfig(fmt.Sprintf("%s/econ/%s/%s", s.Seed, set.name, tariff))
	cfg.End = cfg.Start.AddDate(0, 0, s.Days)
	cfg.Policy = policy
	cfg.Sites = cfg.Sites[:0]
	for _, c := range set.climates {
		tf := tariff
		if tf == pairedTariff {
			tf = pairing[c]
		}
		cfg.Sites = append(cfg.Sites, core.SiteConfig{
			Name:    c,
			Climate: c,
			Tariff:  tf,
			Hosts:   s.HostsPerSite,
		})
	}
	return cfg
}

// RunEcon executes the sweep. Cells run sequentially in cross-product
// order (policy outermost, then set, then tariff) — each cell is itself
// deterministic at any GOMAXPROCS, so the sweep digest is too.
func RunEcon(spec EconSpec) (*EconSummary, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := spec.withDefaults()
	policies := control.Policies()
	total := len(policies) * len(econSets) * len(econTariffs)
	sum := &EconSummary{Seed: d.Seed, Days: d.Days, Cells: make([]EconCell, 0, total)}
	for _, p := range policies {
		for _, set := range econSets {
			for _, tariff := range econTariffs {
				cfg := d.econConfig(set, tariff, p.Name)
				label := strings.Join([]string{p.Name, set.name, tariff}, "/")
				eng, err := core.NewMultiSite(cfg)
				if err != nil {
					return nil, fmt.Errorf("campaign: econ cell %s: %w", label, err)
				}
				r, err := eng.Run()
				if err != nil {
					return nil, fmt.Errorf("campaign: econ cell %s: %w", label, err)
				}
				sum.Cells = append(sum.Cells, EconCell{
					Policy: p.Name,
					Set:    set.name,
					Tariff: tariff,
					Label:  label,
					Result: r,
				})
				if d.Progress != nil {
					d.Progress(len(sum.Cells), total, &sum.Cells[len(sum.Cells)-1])
				}
			}
		}
	}
	return sum, nil
}
