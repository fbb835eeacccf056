package loadgen

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is an HDR-style latency histogram: power-of-two major buckets
// from 1µs upward, each split into 16 linear sub-buckets, giving ≤ ~6%
// relative quantile error across nine orders of magnitude in a few KB.
// Recording is one atomic increment, so hundreds of scraper goroutines
// share one Hist without contention on a lock.
type Hist struct {
	counts [hdrMajors * hdrSubs]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds, saturating in practice far away
	max    atomic.Uint64 // nanoseconds
}

const (
	hdrBase   = uint64(time.Microsecond) // resolution floor: 1µs
	hdrMajors = 40                       // covers up to ~2^39 µs ≈ 6.4 days
	hdrSubs   = 16
)

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	v := uint64(d) / hdrBase // in µs
	if v < hdrSubs {
		return int(v) // the first major is fully linear
	}
	major := bits.Len64(v) - 1 - 4 // log2(v) minus sub-bucket bits
	if major >= hdrMajors-1 {
		major = hdrMajors - 2
	}
	sub := (v >> uint(major)) - hdrSubs
	if sub > hdrSubs-1 { // off-scale high after the major clamp
		sub = hdrSubs - 1
	}
	return int((uint64(major)+1)*hdrSubs + sub)
}

// lowerBound returns the smallest duration that lands in bucket i.
func lowerBound(i int) time.Duration {
	major := i / hdrSubs
	sub := uint64(i % hdrSubs)
	if major == 0 {
		return time.Duration(sub * hdrBase)
	}
	v := (hdrSubs + sub) << uint(major-1)
	return time.Duration(v * hdrBase)
}

// Record adds one observation.
func (h *Hist) Record(d time.Duration) {
	h.counts[bucketOf(d)].Add(1)
	h.total.Add(1)
	h.sum.Add(uint64(d))
	for {
		cur := h.max.Load()
		if uint64(d) <= cur || h.max.CompareAndSwap(cur, uint64(d)) {
			return
		}
	}
}

// Max returns the largest recorded duration.
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the arithmetic mean of recorded durations.
func (h *Hist) Mean() time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns the q'th quantile (q in [0,1]) as the lower bound of
// the bucket holding that rank — a slight underestimate, bounded by the
// bucket's ~6% width. The true max is substituted for q = 1.
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max()
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > rank {
			return lowerBound(i)
		}
	}
	return h.Max()
}
