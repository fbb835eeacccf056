package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"frostlab/internal/core"
)

// job is one scheduled replicate.
type job struct {
	pt  point
	rep int
}

// Run executes the campaign: it expands the sweep, restores completed
// replicates from the checkpoint directory, fans the remaining jobs out
// across the worker pool, and pools every summary into the returned
// Summary. A replicate that errors or panics is isolated — it is reported
// in the aggregates as failed and the campaign continues. When ctx is
// cancelled, in-flight simulations abort at their next event boundary and
// Run returns the partial Summary together with ctx.Err(); completed
// replicates are already checkpointed, so the next Run resumes where this
// one stopped.
func Run(ctx context.Context, spec Spec) (*Summary, error) {
	if spec.Seed == "" {
		return nil, fmt.Errorf("campaign: spec needs a seed")
	}
	if spec.Reps <= 0 {
		return nil, fmt.Errorf("campaign: reps must be positive, got %d", spec.Reps)
	}
	if spec.Workers <= 0 {
		spec.Workers = runtime.GOMAXPROCS(0)
	}
	if spec.EnvelopeGrid <= 0 {
		spec.EnvelopeGrid = DefaultEnvelopeGrid
	}
	if spec.BootstrapIters <= 0 {
		spec.BootstrapIters = 1000
	}

	pts := spec.points()
	total := len(pts) * spec.Reps
	sums := make([]RunSummary, 0, total)

	// Restore what a previous, interrupted campaign already finished.
	var pending []job
	for _, pt := range pts {
		for rep := 0; rep < spec.Reps; rep++ {
			if rs, ok := spec.loadCheckpoint(pt, rep); ok {
				sums = append(sums, rs)
				if spec.Metrics != nil {
					spec.Metrics.RepsRestored.Inc()
				}
				continue
			}
			pending = append(pending, job{pt: pt, rep: rep})
		}
	}
	for _, rs := range sums {
		if spec.Progress != nil {
			spec.Progress(len(sums), total, rs)
		}
	}

	jobs := make(chan job)
	results := make(chan RunSummary)
	var wg sync.WaitGroup
	for w := 0; w < spec.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				results <- spec.runOne(ctx, j)
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, j := range pending {
			select {
			case jobs <- j:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	for rs := range results {
		sums = append(sums, rs)
		if spec.Progress != nil {
			spec.Progress(len(sums), total, rs)
		}
	}

	summary := spec.buildSummary(pts, sums, total)
	if err := ctx.Err(); err != nil {
		return summary, err
	}
	return summary, nil
}

// runOne executes a single replicate with panic isolation: a diverging
// replicate (bad config, model panic, cancellation) yields a failed
// RunSummary instead of killing the campaign.
func (s *Spec) runOne(ctx context.Context, j job) (rs RunSummary) {
	rs = RunSummary{Point: j.pt.label, Rep: j.rep, Seed: RepSeed(s.Seed, j.rep)}
	var wallStart time.Time
	if s.Metrics != nil {
		wallStart = time.Now()
		s.Metrics.WorkersBusy.Inc()
	}
	defer func() {
		if p := recover(); p != nil {
			rs.Err = fmt.Sprintf("panic: %v", p)
			if s.Metrics != nil {
				s.Metrics.Panics.Inc()
			}
		}
		if s.Metrics != nil {
			s.Metrics.WorkersBusy.Dec()
			s.Metrics.observeOutcome(rs, time.Since(wallStart))
		}
	}()
	cfg, err := s.config(j.pt, j.rep)
	if err != nil {
		rs.Err = err.Error()
		return rs
	}
	exp, err := core.New(cfg)
	if err != nil {
		rs.Err = err.Error()
		return rs
	}
	r, err := exp.RunContext(ctx)
	if err != nil {
		rs.Err = err.Error()
		return rs
	}
	sum, err := Summarize(r, s.EnvelopeGrid)
	if err != nil {
		rs.Err = err.Error()
		return rs
	}
	sum.Point, sum.Rep, sum.Seed = rs.Point, rs.Rep, rs.Seed
	// Persist before reporting: a checkpointed run is one the next
	// campaign never re-pays for. A persistence failure only disables
	// resume for this replicate; the statistics are unaffected.
	s.saveCheckpoint(j.pt, j.rep, r)
	return sum
}
