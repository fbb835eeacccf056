package rules

import (
	"bytes"
	"testing"
	"time"

	"frostlab/internal/tsdb"
)

var t0 = time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)

func tick(i int) time.Time { return t0.Add(time.Duration(i) * 20 * time.Minute) }

func TestAlertStateMachine(t *testing.T) {
	store := tsdb.NewStore(0)
	var temp float64 = 10
	eng := NewEngine(MustParse("alert hot value($temp) > 30 for 40m severity page\n"), store).
		Live("temp", func() float64 { return temp })

	eng.Eval(tick(0))
	if got := eng.ActiveAlerts(); len(got) != 0 {
		t.Fatalf("alerts while cool: %+v", got)
	}

	temp = 35
	eng.Eval(tick(1)) // pending
	if got := eng.ActiveAlerts(); len(got) != 1 || got[0].State != "pending" {
		t.Fatalf("after first hot tick: %+v", got)
	}
	eng.Eval(tick(2)) // 20m pending < 40m for
	eng.Eval(tick(3)) // 40m pending -> firing
	got := eng.ActiveAlerts()
	if len(got) != 1 || got[0].State != "firing" || got[0].Severity != "page" {
		t.Fatalf("after for-duration: %+v", got)
	}
	inc := eng.Incidents()
	if len(inc.Open) != 1 || inc.Open[0].Rule != "hot" || inc.Total != 1 {
		t.Fatalf("incidents: %+v", inc)
	}
	if inc.Open[0].PendingAt != tick(1) || inc.Open[0].FiredAt != tick(3) {
		t.Fatalf("incident times: %+v", inc.Open[0])
	}

	temp = 20
	eng.Eval(tick(4)) // resolved
	if got := eng.ActiveAlerts(); len(got) != 0 {
		t.Fatalf("alerts after cool-down: %+v", got)
	}
	inc = eng.Incidents()
	if len(inc.Open) != 0 || len(inc.Resolved) != 1 || inc.Resolved[0].ResolvedAt != tick(4) {
		t.Fatalf("incidents after resolve: %+v", inc)
	}

	kinds := []EventKind{}
	for _, ev := range eng.Timeline() {
		kinds = append(kinds, ev.Kind)
	}
	want := []EventKind{EvPending, EvFiring, EvResolved}
	if len(kinds) != len(want) {
		t.Fatalf("timeline kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("timeline kinds = %v, want %v", kinds, want)
		}
	}
}

func TestPendingCancelled(t *testing.T) {
	var v float64
	eng := NewEngine(MustParse("alert x value($v) > 0 for 40m\n"), tsdb.NewStore(0)).
		Live("v", func() float64 { return v })
	v = 1
	eng.Eval(tick(0))
	v = 0
	eng.Eval(tick(1))
	tl := eng.Timeline()
	if len(tl) != 2 || tl[0].Kind != EvPending || tl[1].Kind != EvCancelled {
		t.Fatalf("timeline = %+v", tl)
	}
	if got := eng.Stats(); got.IncidentsTotal != 0 {
		t.Fatalf("cancelled pending opened an incident: %+v", got)
	}
}

func TestZeroForFiresImmediately(t *testing.T) {
	var v float64 = 5
	eng := NewEngine(MustParse("alert x value($v) > 0\n"), tsdb.NewStore(0)).
		Live("v", func() float64 { return v })
	eng.Eval(tick(0))
	if got := eng.ActiveAlerts(); len(got) != 1 || got[0].State != "firing" {
		t.Fatalf("alerts = %+v", got)
	}
}

func TestRecordingRuleWritesSeries(t *testing.T) {
	store := tsdb.NewStore(0)
	var v float64
	eng := NewEngine(MustParse("record doubled value($v)\n"), store).
		Live("v", func() float64 { return v })
	for i := 0; i < 5; i++ {
		v = float64(i * 2)
		eng.Eval(tick(i))
	}
	it, err := store.QueryAll("doubled")
	if err != nil {
		t.Fatalf("QueryAll: %v", err)
	}
	n := 0
	for it.Next() {
		ts, val := it.At()
		if ts != tick(n).UnixNano() || val != float64(n*2) {
			t.Fatalf("sample %d = (%d, %v)", n, ts, val)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("recorded %d samples, want 5", n)
	}
	if st := eng.Stats(); st.Records != 5 {
		t.Fatalf("stats.Records = %d", st.Records)
	}
}

func TestWildcardExpansionAndAbsent(t *testing.T) {
	store := tsdb.NewStore(0)
	eng := NewEngine(MustParse("alert stale absent(*/cpu,45m) for 20m\n"), store)

	// Three hosts report; then host 02 goes quiet.
	for i := 0; i < 12; i++ {
		now := tick(i)
		for _, h := range []string{"01", "02", "03"} {
			if h == "02" && i >= 3 {
				continue
			}
			if err := store.Append(h+"/cpu", now.UnixNano(), 1); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		eng.Eval(now)
	}
	got := eng.ActiveAlerts()
	if len(got) != 1 || got[0].Instance != "02" || got[0].State != "firing" {
		t.Fatalf("alerts = %+v", got)
	}
	if st := eng.Stats(); st.Instances != 3 {
		t.Fatalf("instances = %d, want 3", st.Instances)
	}
	// The reserved incident series must not create wildcard instances.
	eng.Eval(tick(12))
	if st := eng.Stats(); st.Instances != 3 {
		t.Fatalf("instances after incident persistence = %d, want 3", st.Instances)
	}
}

func TestRateWindow(t *testing.T) {
	store := tsdb.NewStore(0)
	var counter float64
	eng := NewEngine(MustParse("alert shedding rate($shed,60m) > 0\n"), store).
		Live("shed", func() float64 { return counter })
	eng.Eval(tick(0))
	eng.Eval(tick(1)) // two flat samples: rate 0
	if got := eng.ActiveAlerts(); len(got) != 0 {
		t.Fatalf("alerts on flat counter: %+v", got)
	}
	counter = 10
	eng.Eval(tick(2))
	got := eng.ActiveAlerts()
	if len(got) != 1 || got[0].State != "firing" {
		t.Fatalf("alerts on rising counter: %+v", got)
	}
	// 10 over 40m within the 60m window.
	wantRate := 10.0 / (40 * 60)
	if diff := got[0].Value - wantRate; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("rate = %v, want %v", got[0].Value, wantRate)
	}
}

func TestEnvelopeAndDewPointPredicates(t *testing.T) {
	var temp, rh, surface float64 = 20, 50, 15
	eng := NewEngine(MustParse(`envelope low=2 high=30 dew=17 rhmax=85
alert out outside_envelope($t,$rh)
alert condensing dewpoint_margin($t,$rh,$surf) < 1
`), tsdb.NewStore(0)).
		Live("t", func() float64 { return temp }).
		Live("rh", func() float64 { return rh }).
		Live("surf", func() float64 { return surface })

	eng.Eval(tick(0))
	if got := eng.ActiveAlerts(); len(got) != 0 {
		t.Fatalf("benign conditions alerted: %+v", got)
	}
	temp, rh, surface = 35, 95, 30 // hot, saturated, surface near dew point
	eng.Eval(tick(1))
	got := eng.ActiveAlerts()
	if len(got) != 2 {
		t.Fatalf("alerts = %+v", got)
	}
}

func TestUnknownLiveGaugeStaysInactive(t *testing.T) {
	eng := NewEngine(MustParse("alert x value($nosuch) > 0\n"), tsdb.NewStore(0))
	eng.Eval(tick(0))
	if got := eng.ActiveAlerts(); len(got) != 0 {
		t.Fatalf("unknown gauge fired: %+v", got)
	}
}

// TestDefaultLiveRulesInactiveWithoutGauges: every default rule that
// reads a $live gauge stays inactive in an embedding that registers none
// of them, however long it evaluates.
func TestDefaultLiveRulesInactiveWithoutGauges(t *testing.T) {
	set := Default()
	live := map[string]bool{}
	for _, r := range set.Rules {
		for _, a := range r.Args {
			if a.Live {
				live[r.Name] = true
			}
		}
	}
	if len(live) == 0 {
		t.Fatal("default ruleset reads no live gauges")
	}
	eng := NewEngine(set, tsdb.NewStore(0))
	for i := 0; i < 6; i++ {
		eng.Eval(tick(i))
	}
	for _, a := range eng.ActiveAlerts() {
		if live[a.Rule] {
			t.Errorf("rule %s active without its gauge: %+v", a.Rule, a)
		}
	}
}

func TestRestoreFromCheckpoint(t *testing.T) {
	store := tsdb.NewStore(0)
	var v float64 = 1
	src := "alert x value($v) > 0 for 20m severity page\n"
	eng := NewEngine(MustParse(src), store).Live("v", func() float64 { return v })
	eng.Eval(tick(0)) // pending
	eng.Eval(tick(1)) // firing

	var buf bytes.Buffer
	if err := store.WriteSegment(&buf); err != nil {
		t.Fatalf("WriteSegment: %v", err)
	}

	store2 := tsdb.NewStore(0)
	if err := store2.ReadSegment(&buf); err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	eng2 := NewEngine(MustParse(src), store2).Live("v", func() float64 { return v })
	if err := eng2.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	inc := eng2.Incidents()
	if len(inc.Open) != 1 || inc.Open[0].Rule != "x" || inc.Open[0].Severity != "page" {
		t.Fatalf("restored incidents: %+v", inc)
	}
	tl := eng2.Timeline()
	if len(tl) != 2 || tl[0].Kind != EvPending || tl[1].Kind != EvFiring {
		t.Fatalf("restored timeline: %+v", tl)
	}
	// The restored instance continues the machine: condition clears ->
	// resolved, no second incident.
	v = 0
	eng2.Eval(tick(2))
	inc = eng2.Incidents()
	if len(inc.Open) != 0 || len(inc.Resolved) != 1 || inc.Total != 1 {
		t.Fatalf("incidents after restored resolve: %+v", inc)
	}
}

func TestTimelineBounded(t *testing.T) {
	var v float64
	eng := NewEngine(MustParse("alert x value($v) > 0\n"), tsdb.NewStore(0)).
		Live("v", func() float64 { return v }).
		WithTimelineCap(8)
	for i := 0; i < 20; i++ {
		v = float64(i % 2) // flaps every tick
		eng.Eval(tick(i))
	}
	if st := eng.Stats(); st.TimelineDropped == 0 {
		t.Fatalf("expected dropped events, stats = %+v", st)
	}
	tl := eng.Timeline()
	if len(tl) != 8 {
		t.Fatalf("timeline length = %d, want 8", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Seq != tl[i-1].Seq+1 {
			t.Fatalf("non-monotone seq: %+v", tl)
		}
	}
}

// TestEvalWarmPathAllocs is the 0 allocs/eval-tick gate: after the
// first (cold) tick builds instances and rings, steady-state
// evaluation of a representative ruleset must not allocate.
func TestEvalWarmPathAllocs(t *testing.T) {
	store := tsdb.NewStore(0)
	var cov float64 = 1
	eng := NewEngine(MustParse(`alert stale absent(*/cpu,45m) for 20m
alert cov value($coverage) < 0.9 for 10m
alert shed rate($shed,30m) > 0
record cov_copy value($coverage)
`), store).
		Live("coverage", func() float64 { return cov }).
		Live("shed", func() float64 { return 0 })
	for _, h := range []string{"01", "02", "03", "04"} {
		if err := store.Append(h+"/cpu", t0.UnixNano(), 1); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	eng.Eval(tick(i)) // cold: builds instances, rings, record series
	i++
	eng.Eval(tick(i)) // second tick re-detects the record series count
	avg := testing.AllocsPerRun(200, func() {
		i++
		eng.Eval(tick(i))
	})
	if avg != 0 {
		t.Fatalf("warm Eval allocates %.1f allocs/tick, want 0", avg)
	}
}

func TestDoubleRunByteIdenticalTimeline(t *testing.T) {
	run := func() string {
		store := tsdb.NewStore(0)
		var cov float64
		eng := NewEngine(MustParse(`alert stale absent(*/cpu,45m) for 20m
alert cov value($coverage) < 0.9 for 20m
`), store).Live("coverage", func() float64 { return cov })
		for i := 0; i < 15; i++ {
			now := tick(i)
			for _, h := range []string{"01", "02", "03"} {
				if h == "01" && i >= 4 {
					continue
				}
				store.Append(h+"/cpu", now.UnixNano(), float64(i))
			}
			cov = 1 - float64(i)*0.02
			eng.Eval(now)
		}
		return eng.TimelineText()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replayed timelines differ:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("timeline empty; scenario produced no transitions")
	}
}
