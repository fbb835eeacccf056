package core

import (
	"sync"
	"testing"

	"frostlab/internal/hardware"
	"frostlab/internal/stats"
)

// referenceRun executes the full reference experiment once per test binary
// (it takes several seconds) and shares the results.
var referenceRun = sync.OnceValues(func() (*Results, error) {
	cfg := DefaultConfig(ReferenceSeed)
	cfg.MonitorEvery = 0 // monitoring draws no failure randomness; skip for speed
	exp, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return exp.Run()
})

func TestReferenceHeadlineFailureRate(t *testing.T) {
	if testing.Short() {
		t.Skip("full reference run")
	}
	r, err := referenceRun()
	if err != nil {
		t.Fatal(err)
	}
	// §4: "Of the eighteen hosts installed initially, one has encountered
	// two transient system failures ... A failure rate of 5.6%".
	if r.InitialHostFailureRate.Events != 1 || r.InitialHostFailureRate.Trials != 18 {
		t.Errorf("initial failure rate %v, want 1/18", r.InitialHostFailureRate)
	}
	if r.ControlHostFailureRate.Events != 0 {
		t.Errorf("control failures %d, want 0 (\"none of the hosts in the control group have failed\")",
			r.ControlHostFailureRate.Events)
	}
	// And it must be statistically indistinguishable from both the
	// control arm and Intel's 4.46%.
	dist, err := stats.Distinguishable(r.InitialHostFailureRate, stats.Rate{Events: 0, Trials: 9})
	if err != nil {
		t.Fatal(err)
	}
	if dist {
		t.Error("tent and control rates distinguishable; the paper's point is they are not")
	}
}

func TestReferenceHost15Story(t *testing.T) {
	if testing.Short() {
		t.Skip("full reference run")
	}
	r, err := referenceRun()
	if err != nil {
		t.Fatal(err)
	}
	h15, ok := r.Hosts["15"]
	if !ok {
		t.Fatal("host 15 missing")
	}
	if len(h15.Transients) != 2 {
		t.Fatalf("host 15 transients %d, want 2 (§4.2.1)", len(h15.Transients))
	}
	if !h15.Relocated {
		t.Error("host 15 not relocated indoors after its second failure")
	}
	if h15.Vendor != hardware.VendorB {
		t.Errorf("host 15 vendor %s, want B", h15.Vendor)
	}
	// The replacement ran clean.
	if h19, ok := r.Hosts["19"]; !ok || len(h19.Transients) != 0 {
		t.Error("replacement host 19 missing or failed; paper: \"neither has the new host\"")
	}
	// No other tent host failed.
	for id, h := range r.Hosts {
		if id == "15" {
			continue
		}
		if h.Location == hardware.Tent && len(h.Transients) > 0 {
			t.Errorf("unexpected tent failure on host %s", id)
		}
	}
}

func TestReferenceChipGlitchSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("full reference run")
	}
	r, err := referenceRun()
	if err != nil {
		t.Fatal(err)
	}
	// §4.2.1: the glitch hits a longest-running tent host (installed on
	// day one). The reference realization picks host 02.
	var glitched []string
	for id, h := range r.Hosts {
		if h.ChipGlitched {
			glitched = append(glitched, id)
			if h.Location != hardware.Tent {
				t.Errorf("chip glitch on %s host %s; cold exposure only exists in the tent", h.Location, id)
			}
			if !h.InstalledAt.Equal(hardware.InstallStart) {
				t.Errorf("glitched host %s installed %v; only day-one hosts saw the deep cold", id, h.InstalledAt)
			}
		}
	}
	if len(glitched) == 0 {
		t.Fatal("no chip glitched; §4.2.1's -111°C sequence missing")
	}
	// The full sequence must appear in the event log in order.
	var seq []EventKind
	for _, ev := range r.Events {
		switch ev.Kind {
		case EventChipGlitch, EventChipLost, EventChipRecovered:
			seq = append(seq, ev.Kind)
		}
	}
	want := []EventKind{EventChipGlitch, EventChipLost, EventChipRecovered}
	if len(seq) != 3 {
		t.Fatalf("chip event sequence %v, want exactly %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("chip event sequence %v, want %v", seq, want)
		}
	}
}

func TestReferenceWrongHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("full reference run")
	}
	r, err := referenceRun()
	if err != nil {
		t.Fatal(err)
	}
	// Rate comparison against §4.2.2: 5/27627 ≈ 1.8e-4 per cycle. Our
	// horizon runs ~2.3x the paper's cycle count; the rate must match
	// within Poisson noise, and both arms must be affected.
	rate := float64(len(r.WrongHashes)) / float64(r.TotalCycles)
	if rate < 0.5e-4 || rate > 4e-4 {
		t.Errorf("wrong-hash rate %.2e per cycle, want ≈ 1.8e-4", rate)
	}
	if r.TentBadHash == 0 || r.BasementBadHash == 0 {
		t.Errorf("bad hashes tent=%d basement=%d; paper saw both arms affected",
			r.TentBadHash, r.BasementBadHash)
	}
	// Every incident must show single-block corruption, and never on an
	// ECC (vendor C) host.
	for _, inc := range r.WrongHashes {
		if len(inc.BadBlocks) != 1 {
			t.Errorf("incident on %s corrupted %d blocks, want 1", inc.HostID, len(inc.BadBlocks))
		}
		h := r.Hosts[inc.HostID]
		if h.Vendor == hardware.VendorC {
			t.Errorf("ECC host %s produced a bad hash", inc.HostID)
		}
	}
	// Implied per-page rate should be the right order of magnitude
	// (paper: 1 in 570 million).
	if r.ImpliedPageFailureRate < 1/(570e6*5) || r.ImpliedPageFailureRate > 5/570e6 {
		t.Errorf("implied page failure rate %.2e, want ≈ 1.75e-9", r.ImpliedPageFailureRate)
	}
}

func TestReferenceCPURecords(t *testing.T) {
	if testing.Short() {
		t.Skip("full reference run")
	}
	r, err := referenceRun()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CPUTemps) != 10 {
		t.Fatalf("CPU records for %d hosts, want all 10 terrace hosts", len(r.CPUTemps))
	}
	// The paper's §3.1 observation: tent CPUs ran below -4 °C. At least
	// one record must dip there (ignoring the -111 bogus floor).
	sawCold := false
	for id, s := range r.CPUTemps {
		sum, err := s.Summarize()
		if err != nil {
			t.Fatalf("host %s: %v", id, err)
		}
		for _, p := range s.Points() {
			if p.Value < -4 && p.Value > -50 {
				sawCold = true
			}
		}
		if h := r.Hosts[id]; h.ChipGlitched && sum.Min > -100 {
			t.Errorf("glitched host %s record never shows the -111 reading", id)
		}
	}
	if !sawCold {
		t.Error("no tent CPU record dips below -4°C; §3.1/§4.2.1 report such readings")
	}
}

func TestReferenceSwitchesFail(t *testing.T) {
	if testing.Short() {
		t.Skip("full reference run")
	}
	r, err := referenceRun()
	if err != nil {
		t.Fatal(err)
	}
	// §4.2.1: both deployed whining switches failed, and the spare
	// manifested an identical failure — three dead switches.
	if len(r.SwitchFailures) != 3 {
		t.Errorf("switch failures %d, want 3", len(r.SwitchFailures))
	}
}

func TestReferenceEnvironmentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full reference run")
	}
	r, err := referenceRun()
	if err != nil {
		t.Fatal(err)
	}
	o, err := r.OutsideTemp.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if o.Min > -20 || o.Min < -26 {
		t.Errorf("outside min %.1f, want ≈ -22 (§4.2.1)", o.Min)
	}
	in, err := r.InsideTemp.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	// The tent runs warmer than outside over the logger's window.
	oLate, err := r.OutsideTemp.SummarizeWindow(in.First, in.Last)
	if err != nil {
		t.Fatal(err)
	}
	if in.Mean <= oLate.Mean {
		t.Errorf("inside mean %.1f not above outside %.1f", in.Mean, oLate.Mean)
	}
	if in.Mean-oLate.Mean > 12 {
		t.Errorf("ΔT %.1f too large; modifications should have opened the tent up", in.Mean-oLate.Mean)
	}
	// The logger arrived Mar 5: no inside samples before that.
	first, err := r.InsideTemp.First()
	if err != nil {
		t.Fatal(err)
	}
	if first.At.Before(DefaultConfig(ReferenceSeed).LascarArrival) {
		t.Errorf("inside series starts %v, before the logger's arrival", first.At)
	}
}
