package timeseries

import (
	"math"
	"strconv"
	"testing"
	"time"

	"frostlab/internal/tsdb"
)

func quantizedSeries(t *testing.T, n int) *Series {
	t.Helper()
	s := New("tent_inside", "°C")
	base := time.Date(2009, 11, 20, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		v, _ := strconv.ParseFloat(strconv.FormatFloat(
			6*math.Sin(float64(i)/70)-3, 'f', 3, 64), 64)
		if err := s.Append(base.Add(time.Duration(i)*20*time.Minute), v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestCompactRoundTrip(t *testing.T) {
	s := quantizedSeries(t, 3000)
	blocks, err := s.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	it := tsdb.NewSeriesIter(blocks, math.MinInt64, math.MaxInt64)
	i := 0
	for ; it.Next(); i++ {
		at, v := it.At()
		if i >= len(pts) {
			t.Fatalf("decoded more than the %d samples compacted", len(pts))
		}
		if a := pts[i]; at != a.At.UnixNano() || math.Float64bits(v) != math.Float64bits(a.Value) {
			t.Fatalf("sample %d: got (%v, %v), want (%v, %v)", i, time.Unix(0, at).UTC(), v, a.At, a.Value)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(pts) {
		t.Fatalf("decoded %d samples, want %d", i, len(pts))
	}
}

func TestSummarizeWindow(t *testing.T) {
	s := quantizedSeries(t, 1000)
	pts := s.Points()
	from := pts[100].At
	to := pts[300].At // exclusive
	sub := New(s.Name(), s.Unit())
	for _, p := range pts[100:300] {
		if err := sub.Append(p.At, p.Value); err != nil {
			t.Fatal(err)
		}
	}
	want, err := sub.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.SummarizeWindow(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("SummarizeWindow = %+v, want %+v", got, want)
	}
	if got.N != 200 {
		t.Fatalf("window holds %d samples, want 200", got.N)
	}
	if _, err := s.SummarizeWindow(to, from); err != ErrEmpty {
		t.Fatalf("inverted window: got %v, want ErrEmpty", err)
	}
	if _, err := s.SummarizeWindow(from.Add(time.Minute), from.Add(2*time.Minute)); err != ErrEmpty {
		t.Fatalf("window between two samples: got %v, want ErrEmpty", err)
	}
}

func TestSummarizeWindowAllocFree(t *testing.T) {
	// The windowed aggregation must not copy the window: the old
	// Slice+Summarize path allocated a fresh Series per dashboard query.
	s := quantizedSeries(t, 5000)
	from := s.Points()[1000].At
	to := s.Points()[4000].At
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.SummarizeWindow(from, to); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SummarizeWindow allocates %.1f times per call, want 0", allocs)
	}
}
