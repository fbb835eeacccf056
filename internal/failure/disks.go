package failure

import (
	"fmt"
	"time"

	"frostlab/internal/units"
)

// Disk-level hard failures. The paper saw none in three months (§4.2.2:
// "the hard drives have passed their S.M.A.R.T. long test runs"), which is
// what the default hazard predicts — roughly a 2 % annualised failure rate
// means ~0.08 expected deaths across the fleet's ~35k disk-hours. The
// machinery still matters: vendor A's software mirror, vendor B's single
// disk and vendor C's mirror+parity array respond very differently when a
// drive does die, and hardware.StorageLayout.SurvivesDiskFailures encodes
// exactly that.

// DiskParams calibrates the disk hazard model.
type DiskParams struct {
	// BasePerHour is the healthy-drive hazard; 2.3e-6/h ≈ 2% AFR.
	BasePerHour float64
	// HotThreshold and HotPerDegree add hazard per °C above the
	// threshold (drives dislike heat far more than cold).
	HotThreshold units.Celsius
	HotPerDegree float64
	// ColdThreshold and ColdPerDegree add a mild penalty below the
	// threshold (spin-up stress in very cold oil).
	ColdThreshold units.Celsius
	ColdPerDegree float64
}

// DefaultDiskParams matches commodity 2005–2009 drives.
func DefaultDiskParams() DiskParams {
	return DiskParams{
		BasePerHour:   2.3e-6,
		HotThreshold:  45,
		HotPerDegree:  0.10,
		ColdThreshold: -10,
		ColdPerDegree: 0.03,
	}
}

// Validate checks the parameters.
func (p DiskParams) Validate() error {
	if p.BasePerHour < 0 || p.HotPerDegree < 0 || p.ColdPerDegree < 0 {
		return fmt.Errorf("failure: negative disk hazard parameters: %+v", p)
	}
	return nil
}

// HazardPerHour computes a drive's current hazard at the given platter
// temperature. Exported so the sharded scale engine can pool per-spec disk
// hazards without stepping drives through an Engine.
func (p DiskParams) HazardPerHour(temp units.Celsius) float64 {
	h := p.BasePerHour
	if temp > p.HotThreshold {
		h *= 1 + p.HotPerDegree*float64(temp-p.HotThreshold)
	}
	if temp < p.ColdThreshold {
		h *= 1 + p.ColdPerDegree*float64(p.ColdThreshold-temp)
	}
	return h
}

// StepDisk advances one drive by dt at the given platter temperature and
// returns a Hard failure event if the drive died. diskID should be unique
// per drive (e.g. "01/2").
func (e *Engine) StepDisk(now time.Time, dt time.Duration, diskID string, temp units.Celsius, p DiskParams) (*Event, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("failure: non-positive disk step %v", dt)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	h := p.HazardPerHour(temp)
	pFail := 1 - expNeg(h*dt.Hours())
	// Intern the stream name once per drive: StepDisk runs for every disk
	// on every failure tick, and the name is stable for the drive's life.
	stream, ok := e.diskStreams[diskID]
	if !ok {
		stream = "disk/" + diskID
		e.diskStreams[diskID] = stream
	}
	if !e.rng.Bernoulli(stream, pFail) {
		return nil, nil
	}
	ev := Event{
		At:        now,
		SubjectID: diskID,
		Component: DiskDrive,
		Kind:      Hard,
		Detail:    fmt.Sprintf("drive failure at %v (hazard %.2e/h)", temp, h),
	}
	return &ev, nil
}
