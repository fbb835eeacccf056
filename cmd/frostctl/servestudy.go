package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"frostlab/internal/loadgen"
)

// The E15 serving-load study (-phase serve): the loadgen driver runs a
// simulated nodeagent fleet plus a concurrent scraper fleet through the
// warmup/ramp/sustain/spike profile against the production serving
// wiring — keepalive-pooled collection, bounded ingest queue, dash with
// admission control and scrape caching — and reports HDR latency
// quantiles, shed counts, pool/ingest accounting, and liveness. The
// arrival schedule is a pure function of the seed, so the same seed and
// flags replay the same offered load. The profile's phase durations,
// spike multiple, round cadence and cache TTL are loadgen's defaults.

const (
	serveStaleConn      = 0.05  // per-(host, round) probability a parked keepalive went stale
	serveSustainP99Ms   = 250.0 // sustain-phase p99 latency budget
	serveGoroutineSlack = 8     // goroutines a run may leave behind before it counts as a leak
)

// serveFlags binds the E15 sizing flags into the loadgen config the
// study runs.
func serveFlags(fs *flag.FlagSet) *loadgen.Config {
	c := &loadgen.Config{PStaleConn: serveStaleConn}
	fs.IntVar(&c.Agents, "serve-agents", 64, "simulated nodeagent fleet size for -phase serve")
	fs.IntVar(&c.Scrapers, "serve-scrapers", 16, "concurrent scraper clients for -phase serve")
	fs.Float64Var(&c.SustainRate, "serve-rate", 400, "sustain-phase offered load in requests/second")
	fs.IntVar(&c.QueueCapacity, "serve-queue", 4, "ingest queue capacity (rounds; oldest shed when full)")
	fs.IntVar(&c.MaxInflight, "serve-inflight", 64, "dash admission watermark (concurrent requests before 503)")
	return c
}

// validateServe rejects sizes loadgen would otherwise silently replace
// with its defaults.
func validateServe(c *loadgen.Config) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"serve-agents", float64(c.Agents)},
		{"serve-scrapers", float64(c.Scrapers)},
		{"serve-rate", c.SustainRate},
		{"serve-queue", float64(c.QueueCapacity)},
		{"serve-inflight", float64(c.MaxInflight)},
	} {
		if !(f.v > 0) {
			return fmt.Errorf("-%s must be positive, got %v", f.name, f.v)
		}
	}
	return nil
}

// runServeStudy drives E15, prints and writes its report, and exits
// through gateServe.
func runServeStudy(ctx context.Context, seed string, cfg loadgen.Config, out string) error {
	cfg.Seed = seed + "/serve"
	fmt.Printf("E15 serving-load study: %d agents, %d scrapers, %.0f rps sustain, seed %q\n",
		cfg.Agents, cfg.Scrapers, cfg.SustainRate, seed)
	fmt.Printf("watermark %d; queue %d; p(stale) %.2f\n\n", cfg.MaxInflight, cfg.QueueCapacity, cfg.PStaleConn)

	started := time.Now()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("%-8s %9s %9s %9s %7s %8s %9s  %8s %8s %8s %8s\n",
		"phase", "arrivals", "ok", "rejected", "errors", "dropped", "cachehit",
		"p50ms", "p99ms", "p999ms", "maxms")
	for _, p := range rep.Phases {
		fmt.Printf("%-8s %9d %9d %9d %7d %8d %9d  %8.2f %8.2f %8.2f %8.2f\n",
			p.Phase, p.Arrivals, p.OK, p.Rejected, p.Errors, p.Dropped, p.CacheHits,
			p.P50Ms, p.P99Ms, p.P999Ms, p.MaxMs)
	}
	fmt.Println()
	fmt.Printf("collection: %d rounds, %d/%d host-rounds ok (%d failed, %d skipped), coverage %.4f, p99 %.1fms\n",
		rep.RoundsPlane.Rounds, rep.RoundsPlane.OK, rep.RoundsPlane.HostRounds,
		rep.RoundsPlane.Failed, rep.RoundsPlane.Skipped, rep.RoundsPlane.Coverage, rep.RoundsPlane.P99Ms)
	fmt.Printf("pool:       %.0f dials, %.0f hits, %.0f stale, %.0f retired, %d idle at close\n",
		rep.Pool.Dials, rep.Pool.Hits, rep.Pool.Stale, rep.Pool.Retired, rep.Pool.Idle)
	fmt.Printf("ingest:     %d offered = %d done + %d shed + %d failed (max depth %d)\n",
		rep.Ingest.Offered, rep.Ingest.Done, rep.Ingest.Shed, rep.Ingest.Failed, rep.Ingest.MaxDepth)
	fmt.Printf("liveness:   %d healthz probes, %d failures; goroutines %d -> %d; mirrors %d bytes\n",
		rep.Healthz.Probes, rep.Healthz.Failures, rep.Goroutines.Before, rep.Goroutines.After, rep.MirrorBytes)
	fmt.Printf("wall time:  %v\n", time.Since(started).Round(time.Millisecond))

	if out != "" {
		if err := writeFile(out, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", out)
	}
	return gateServe(rep)
}

// gateServe holds E15 to its degradation budget. A run that sheds load
// is healthy; one that loses track of load, goes dark, leaks, or lets
// scrape traffic break collection is not. It checks, in order: no
// unaccounted request in any phase, sustain p99 within budget, at least
// one healthz probe and none failed, balanced ingest accounting, no
// goroutine leak, and no failed collection host-round.
func gateServe(rep *loadgen.Report) error {
	for _, p := range rep.Phases {
		if p.Unaccounted != 0 {
			return fmt.Errorf("E15: %s: %d requests unaccounted (arrivals != ok+rejected+errors+dropped)", p.Phase, p.Unaccounted)
		}
	}
	sustain := rep.PhaseByName("sustain")
	if sustain == nil {
		return fmt.Errorf("E15: report has no sustain phase")
	}
	if sustain.P99Ms > serveSustainP99Ms {
		return fmt.Errorf("E15: sustain-phase p99 %.2f ms above the %.0f ms budget", sustain.P99Ms, serveSustainP99Ms)
	}
	if rep.Healthz.Probes == 0 || rep.Healthz.Failures != 0 {
		return fmt.Errorf("E15: serving plane went dark under load: healthz failed %d of %d probes", rep.Healthz.Failures, rep.Healthz.Probes)
	}
	if ing := rep.Ingest; ing.Offered != ing.Done+ing.Shed+ing.Failed {
		return fmt.Errorf("E15: ingest accounting broken: %+v", ing)
	}
	if g := rep.Goroutines; g.After > g.Before+serveGoroutineSlack {
		return fmt.Errorf("E15: goroutine leak across the load run: %d -> %d", g.Before, g.After)
	}
	if n := rep.RoundsPlane.Failed; n != 0 {
		return fmt.Errorf("E15: %d collection host-rounds failed under scrape load", n)
	}
	return nil
}
