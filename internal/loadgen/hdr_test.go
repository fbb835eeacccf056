package loadgen

import (
	"testing"
	"time"
)

func TestHistBucketRoundTrip(t *testing.T) {
	// Every bucket's lower bound must map back to that bucket, and
	// bounds must be strictly increasing.
	prev := time.Duration(-1)
	for i := 0; i < hdrMajors*hdrSubs-hdrSubs; i++ {
		lb := lowerBound(i)
		if got := bucketOf(lb); got != i {
			t.Fatalf("bucketOf(lowerBound(%d)) = %d", i, got)
		}
		if lb <= prev && i > 0 {
			t.Fatalf("bounds not increasing at %d: %v <= %v", i, lb, prev)
		}
		prev = lb
	}
}

func TestHistQuantiles(t *testing.T) {
	h := &Hist{}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.total.Load() != 1000 {
		t.Fatalf("count = %d", h.total.Load())
	}
	if h.Max() != 1000*time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
	checks := map[float64]time.Duration{0.50: 500 * time.Millisecond, 0.99: 990 * time.Millisecond, 0.999: 999 * time.Millisecond}
	for q, want := range checks {
		got := h.Quantile(q)
		// Bucket resolution bounds the error at ~6.25% low.
		if got > want || float64(got) < float64(want)*0.93 {
			t.Errorf("q%.3f = %v, want within [%v, %v]", q, got, time.Duration(float64(want)*0.93), want)
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("q1 = %v, want max %v", h.Quantile(1), h.Max())
	}
	mean := h.Mean()
	if mean < 480*time.Millisecond || mean > 520*time.Millisecond {
		t.Errorf("mean = %v, want ~500ms", mean)
	}
}

func TestHistExtremes(t *testing.T) {
	h := &Hist{}
	h.Record(-time.Second) // clamped to zero
	h.Record(0)
	h.Record(500 * time.Nanosecond) // below resolution floor
	h.Record(365 * 24 * time.Hour)  // off-scale high, must not panic
	if h.total.Load() != 4 {
		t.Fatalf("count = %d", h.total.Load())
	}
	if h.Quantile(0.1) != 0 {
		t.Errorf("q0.1 = %v, want 0", h.Quantile(0.1))
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty hist quantile/mean nonzero")
	}
}
