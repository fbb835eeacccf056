package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := shortConfig("serialize")
	cfg.End = cfg.Start.AddDate(0, 0, 3)
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveResults(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResults(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if back.Seed != r.Seed || !back.Start.Equal(r.Start) || !back.End.Equal(r.End) {
		t.Error("header fields differ")
	}
	if back.TotalCycles != r.TotalCycles || back.MonitorRounds != r.MonitorRounds {
		t.Error("counters differ")
	}
	if back.MonitorCoverage != r.MonitorCoverage {
		t.Error("monitor coverage differs")
	}
	if len(back.MonitorGaps) != len(r.MonitorGaps) {
		t.Fatalf("gaps %d vs %d", len(back.MonitorGaps), len(r.MonitorGaps))
	}
	for i, hg := range r.MonitorGaps {
		bg := back.MonitorGaps[i]
		if bg.HostID != hg.HostID || bg.Collected != hg.Collected || bg.Missed != hg.Missed {
			t.Errorf("gap %d differs: %+v vs %+v", i, bg, hg)
		}
	}
	if back.TentHostFailureRate != r.TentHostFailureRate ||
		back.InitialHostFailureRate != r.InitialHostFailureRate {
		t.Error("rates differ")
	}
	if back.OutsideTemp.Len() != r.OutsideTemp.Len() || back.InsideTemp.Len() != r.InsideTemp.Len() {
		t.Fatalf("series lengths differ: %d/%d vs %d/%d",
			back.OutsideTemp.Len(), back.InsideTemp.Len(), r.OutsideTemp.Len(), r.InsideTemp.Len())
	}
	for i := 0; i < r.OutsideTemp.Len(); i += 97 {
		a, b := r.OutsideTemp.Points()[i], back.OutsideTemp.Points()[i]
		if !a.At.Equal(b.At) || a.Value != b.Value {
			t.Fatalf("outside point %d differs: %+v vs %+v", i, a, b)
		}
	}
	if len(back.Events) != len(r.Events) {
		t.Fatalf("events %d vs %d", len(back.Events), len(r.Events))
	}
	for i := range r.Events {
		if back.Events[i] != r.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	if len(back.Hosts) != len(r.Hosts) {
		t.Fatalf("hosts %d vs %d", len(back.Hosts), len(r.Hosts))
	}
	for id, h := range r.Hosts {
		bh, ok := back.Hosts[id]
		if !ok {
			t.Fatalf("host %s lost", id)
		}
		if bh.Cycles != h.Cycles || bh.Vendor != h.Vendor || bh.CPUMin != h.CPUMin {
			t.Errorf("host %s fields differ", id)
		}
	}
	if len(back.Modifications) != len(r.Modifications) {
		t.Error("modifications differ")
	}
	if back.TentEnergy != r.TentEnergy || back.SMARTLongTestsPassed != r.SMARTLongTestsPassed {
		t.Error("instrument fields differ")
	}
}

func TestLoadResultsRejectsBadInput(t *testing.T) {
	if _, err := LoadResults(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadResults(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := LoadResults(strings.NewReader(`{"version": 1, "modifications": {"Z": "2010-03-01T00:00:00Z"}}`)); err == nil {
		t.Error("unknown modification accepted")
	}
}
