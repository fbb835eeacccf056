package monitor

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// RetryPolicy bounds how hard the collector works to reach one host within
// a single round. The paper's collection loop simply skipped a host that
// did not answer (§4.2.1's crashed machines left real gaps in the series);
// the hardened collector retries with exponential backoff before giving a
// round up on a host, so a transient network blip does not become a gap.
type RetryPolicy struct {
	// MaxAttempts caps tries per host per round; NewFleetCollector
	// rejects values below 1.
	MaxAttempts int
	// BaseBackoff is the pause before the second attempt.
	BaseBackoff time.Duration
	// Multiplier grows the pause on each further attempt (default 2).
	Multiplier float64
	// MaxBackoff caps any single pause (0 = uncapped).
	MaxBackoff time.Duration
	// JitterFrac spreads the pause by ±JitterFrac/2: the computed backoff
	// is scaled by 1 + JitterFrac*(u-0.5) for a jitter draw u in [0,1).
	// Where the draw comes from is the caller's choice — FleetConfig.Jitter
	// supplies a deterministic source so chaos runs replay bit-identically.
	JitterFrac float64
}

// Backoff returns the pause after the given failed attempt (1-based), with
// the jitter draw u in [0,1) applied. Backoff(1, u) precedes attempt 2.
func (rp RetryPolicy) Backoff(failed int, u float64) time.Duration {
	if failed < 1 || rp.BaseBackoff <= 0 {
		return 0
	}
	mult := rp.Multiplier
	if mult <= 0 {
		mult = 2
	}
	d := float64(rp.BaseBackoff)
	for i := 1; i < failed; i++ {
		d *= mult
		if rp.MaxBackoff > 0 && d > float64(rp.MaxBackoff) {
			d = float64(rp.MaxBackoff)
			break
		}
	}
	if rp.MaxBackoff > 0 && d > float64(rp.MaxBackoff) {
		d = float64(rp.MaxBackoff)
	}
	if rp.JitterFrac > 0 {
		if u < 0 {
			u = 0
		}
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		d *= 1 + rp.JitterFrac*(u-0.5)
	}
	if d < 0 {
		return 0
	}
	return time.Duration(d)
}

// WaitContext sleeps out the backoff pause that follows the given failed
// attempt, under a context: cancellation — a round deadline firing, a
// daemon draining on SIGTERM — interrupts the pause immediately instead
// of running it out against a host that no longer matters. The jitter
// draw u and the sleep function are injected (nil sleep uses a real
// timer), so deterministic chaos runs replay bit-identically: the pause
// is still *computed* (keeping the draw sequence stable) even when the
// injected sleep returns without waiting. A context that is already
// cancelled returns before any sleep runs, whatever sleep is injected.
func (rp RetryPolicy) WaitContext(ctx context.Context, failed int, u float64, sleep func(context.Context, time.Duration) error) error {
	d := rp.Backoff(failed, u)
	if err := ctx.Err(); err != nil {
		return err
	}
	if sleep == nil {
		sleep = SleepContext
	}
	return sleep(ctx, d)
}

// SleepContext is the production backoff sleep: a real timer that aborts
// as soon as ctx is cancelled, returning the context's error.
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// DeterministicJitter derives a stable jitter source from a seed string:
// the same (seed, host, round, attempt) always yields the same u in [0,1),
// on every platform. It is the monitoring plane's analogue of simkernel's
// named RNG streams, kept dependency-free so monitor stays a leaf package.
func DeterministicJitter(seed string) func(hostID string, round, attempt int) float64 {
	return func(hostID string, round, attempt int) float64 {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s\x00jitter\x00%s\x00%d\x00%d", seed, hostID, round, attempt)))
		// 53 bits of the digest give a uniform float64 in [0,1).
		return float64(binary.BigEndian.Uint64(sum[:8])>>11) / float64(1<<53)
	}
}
