// Package hardware models the computer equipment of the experiment: the
// three vendor form factors of §3.4, their component inventories, power
// draw, storage layouts, the pairwise tent/basement fleet, the Fig. 2
// installation timeline, and the two cosmetically-defective 8-port network
// switches of §4.2.1.
package hardware

import (
	"fmt"
	"sort"
	"time"

	"frostlab/internal/thermal"
	"frostlab/internal/units"
)

// Vendor identifies one of the paper's three anonymised suppliers.
type Vendor string

// The vendors of §3.4.
const (
	// VendorA is "a small vendor using COTS hardware to build 'cloned'
	// desktop machines" in medium tower cases.
	VendorA Vendor = "A"
	// VendorB is "a large vendor producing mass-manufactured small form
	// factor PCs"; the series the department already knew to be unreliable.
	VendorB Vendor = "B"
	// VendorC is "a large vendor offering rack mounted heavy duty servers
	// in the 2U form factor".
	VendorC Vendor = "C"
)

// FormFactor is the chassis type.
type FormFactor string

// Chassis types of the three vendors plus the prototype.
const (
	MediumTower     FormFactor = "medium-tower"
	SmallFormFactor FormFactor = "small-form-factor"
	RackMount2U     FormFactor = "2U"
	GenericPC       FormFactor = "generic-pc"
)

// StorageLayout is how a machine's drives are arranged.
type StorageLayout string

// The storage layouts of §3.4.
const (
	// SoftwareMirror: two drives in a Linux multiple-devices (md) mirror
	// (vendor A).
	SoftwareMirror StorageLayout = "sw-mirror"
	// SingleDisk: one drive, no redundancy (vendor B — the form factor
	// only fits one).
	SingleDisk StorageLayout = "single"
	// MirrorPlusParityStripe: five drives, two in a hardware mirror and
	// three in a stripe set with parity (vendor C).
	MirrorPlusParityStripe StorageLayout = "hw-mirror+raid5"
	// PrototypeDisk: the prototype generic PC, one drive.
	PrototypeDisk StorageLayout = "proto-single"
)

// DiskCount returns how many drives the layout contains.
func (l StorageLayout) DiskCount() int {
	switch l {
	case SoftwareMirror:
		return 2
	case SingleDisk, PrototypeDisk:
		return 1
	case MirrorPlusParityStripe:
		return 5
	default:
		return 0
	}
}

// SurvivesDiskFailures reports whether the layout still serves data after
// losing the given set of drive indices. Mirror halves are indices 0-1;
// vendor C's parity stripe is indices 2-4.
func (l StorageLayout) SurvivesDiskFailures(failed []int) bool {
	set := map[int]bool{}
	for _, i := range failed {
		if i < 0 || i >= l.DiskCount() {
			continue
		}
		set[i] = true
	}
	switch l {
	case SoftwareMirror:
		return !(set[0] && set[1])
	case SingleDisk, PrototypeDisk:
		return len(set) == 0
	case MirrorPlusParityStripe:
		if set[0] && set[1] {
			return false
		}
		parityLost := 0
		for i := 2; i <= 4; i++ {
			if set[i] {
				parityLost++
			}
		}
		return parityLost <= 1
	default:
		return false
	}
}

// SurvivesDiskMask is SurvivesDiskFailures over a dead-drive bitmask
// (bit i set = drive i dead, drives beyond the layout ignored). It
// allocates nothing, which lets the sharded scale engine keep its
// disk-cascade path on the zero-allocation budget.
func (l StorageLayout) SurvivesDiskMask(dead uint32) bool {
	n := l.DiskCount()
	if n == 0 {
		return false
	}
	dead &= 1<<uint(n) - 1
	switch l {
	case SoftwareMirror:
		return dead&0b11 != 0b11
	case SingleDisk, PrototypeDisk:
		return dead == 0
	case MirrorPlusParityStripe:
		if dead&0b11 == 0b11 {
			return false
		}
		parityLost := 0
		for i := 2; i <= 4; i++ {
			if dead&(1<<uint(i)) != 0 {
				parityLost++
			}
		}
		return parityLost <= 1
	default:
		return false
	}
}

// Spec is the full description of one machine model.
type Spec struct {
	Vendor     Vendor
	FormFactor FormFactor
	Layout     StorageLayout
	// Airflow couples the spec to the thermal model.
	Airflow thermal.AirflowModel
	// IdlePower and LoadPower bracket the machine's draw; the synthetic
	// workload duty cycle interpolates between them.
	IdlePower units.Watts
	LoadPower units.Watts
	// CPUShare is the fraction of total power dissipated at the CPU die.
	CPUShare float64
	// ECC reports whether the memory has error-correcting parity. §4.2.2:
	// all hosts that produced bad hashes had non-ECC memory.
	ECC bool
	// KnownDefective marks vendor B's series with pre-existing
	// heat-related problems (§3, fourth research question).
	KnownDefective bool
}

// Validate checks the spec's invariants.
func (s Spec) Validate() error {
	if s.LoadPower < s.IdlePower || s.IdlePower <= 0 {
		return fmt.Errorf("hardware: power bracket [%v, %v] invalid", s.IdlePower, s.LoadPower)
	}
	if s.CPUShare <= 0 || s.CPUShare >= 1 {
		return fmt.Errorf("hardware: CPU share %v out of (0,1)", s.CPUShare)
	}
	if s.Layout.DiskCount() == 0 {
		return fmt.Errorf("hardware: unknown storage layout %q", s.Layout)
	}
	return s.Airflow.Validate()
}

// Power returns the draw at the given load fraction (0 = idle, 1 = full).
func (s Spec) Power(load float64) units.Watts {
	if load < 0 {
		load = 0
	}
	if load > 1 {
		load = 1
	}
	return s.IdlePower + units.Watts(load)*(s.LoadPower-s.IdlePower)
}

// CPUPower returns the CPU-die share of the draw at the given load.
func (s Spec) CPUPower(load float64) units.Watts {
	return units.Watts(float64(s.Power(load)) * s.CPUShare)
}

// The vendor specs. Power figures are representative of 2005-2009 desktop
// and 2U server hardware.
var (
	specA = Spec{
		Vendor: VendorA, FormFactor: MediumTower, Layout: SoftwareMirror,
		Airflow:   thermal.MediumTowerAirflow,
		IdlePower: 95, LoadPower: 160, CPUShare: 0.45, ECC: false,
	}
	specB = Spec{
		Vendor: VendorB, FormFactor: SmallFormFactor, Layout: SingleDisk,
		Airflow:   thermal.SmallFormFactorAirflow,
		IdlePower: 60, LoadPower: 105, CPUShare: 0.5, ECC: false,
		KnownDefective: true,
	}
	specC = Spec{
		Vendor: VendorC, FormFactor: RackMount2U, Layout: MirrorPlusParityStripe,
		Airflow:   thermal.RackServerAirflow,
		IdlePower: 210, LoadPower: 310, CPUShare: 0.4, ECC: true,
	}
	specProto = Spec{
		Vendor: VendorA, FormFactor: GenericPC, Layout: PrototypeDisk,
		Airflow:   thermal.GenericPCAirflow,
		IdlePower: 70, LoadPower: 120, CPUShare: 0.4, ECC: false,
	}
)

// SpecFor returns the spec of the given vendor.
func SpecFor(v Vendor) (Spec, error) {
	switch v {
	case VendorA:
		return specA, nil
	case VendorB:
		return specB, nil
	case VendorC:
		return specC, nil
	default:
		return Spec{}, fmt.Errorf("hardware: unknown vendor %q", v)
	}
}

// PrototypeSpec returns the generic PC used in the prototype phase.
func PrototypeSpec() Spec { return specProto }

// Location is where a host runs.
type Location string

// The two experiment sites plus the prototype's spot on the terrace floor.
const (
	Tent     Location = "tent"
	Basement Location = "basement"
	Terrace  Location = "terrace" // prototype phase, between plastic boxes
)

// Host is one machine of the fleet.
type Host struct {
	// ID is the paper's terrace numbering ("01".."19") for test-group
	// hosts, or "c" + twin ID for basement controls ("c01").
	ID   string
	Spec Spec
	// Location is where the host currently runs (it can change: host 15
	// was taken indoors after its second failure).
	Location Location
	// InstalledAt is when the host joined the experiment (Fig. 2).
	InstalledAt time.Time
	// TwinID names the pairwise-identical host in the other group, if any.
	TwinID string
	// TentID names the enclosure a tent-located host sits in. The paper's
	// fleet shares one tent and leaves it empty; synthetic scale fleets
	// (SyntheticFleet) group hosts into many tents, and the sharded core
	// engine uses the grouping as its unit of parallelism.
	TentID string
	// ReplacementFor names the host this one replaced, if any ("19"
	// replaced "15").
	ReplacementFor string
}

// Fleet is the full machine inventory of an experiment.
type Fleet struct {
	hosts map[string]*Host
	order []string
}

// NewFleet returns an empty fleet.
func NewFleet() *Fleet { return &Fleet{hosts: make(map[string]*Host)} }

// Add inserts a host. IDs must be unique and specs valid.
func (f *Fleet) Add(h *Host) error {
	if h.ID == "" {
		return fmt.Errorf("hardware: host needs an ID")
	}
	if _, dup := f.hosts[h.ID]; dup {
		return fmt.Errorf("hardware: duplicate host ID %q", h.ID)
	}
	if err := h.Spec.Validate(); err != nil {
		return fmt.Errorf("hardware: host %s: %w", h.ID, err)
	}
	f.hosts[h.ID] = h
	f.order = append(f.order, h.ID)
	return nil
}

// All returns every host in insertion order.
func (f *Fleet) All() []*Host {
	out := make([]*Host, 0, len(f.order))
	for _, id := range f.order {
		out = append(out, f.hosts[id])
	}
	return out
}

// At returns the hosts at a location, sorted by ID.
func (f *Fleet) At(loc Location) []*Host {
	var out []*Host
	for _, h := range f.All() {
		if h.Location == loc {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TotalPower sums the power draw of the given hosts at the given load.
func TotalPower(hosts []*Host, load float64) units.Watts {
	var sum units.Watts
	for _, h := range hosts {
		sum += h.Spec.Power(load)
	}
	return sum
}
