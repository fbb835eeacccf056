package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"frostlab/internal/core"
)

// Checkpoints reuse internal/core's results serializer: every completed
// replicate is written as the same JSON a `frostctl -save` run produces,
// so checkpoint files are themselves inspectable artefacts (frostctl
// -load renders any of them). Writes go through a temp file and rename so
// an interrupt mid-write never leaves a half checkpoint that a resume
// would trust; unreadable files are simply re-run.

// checkpointPath names a replicate's checkpoint file.
func (s *Spec) checkpointPath(pt point, rep int) string {
	return filepath.Join(s.CheckpointDir,
		fmt.Sprintf("%s-rep%04d.json", sanitizeLabel(pt.label), rep))
}

// sanitizeLabel maps a sweep-point label onto a safe filename stem.
func sanitizeLabel(label string) string {
	var b strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '=':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// saveCheckpoint persists a finished replicate. On failure it removes any
// temp file it wrote and returns the error; the caller keeps the
// replicate's statistics either way.
func (s *Spec) saveCheckpoint(pt point, rep int, r *core.Results) error {
	if s.CheckpointDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("campaign: writing checkpoint: %w", err)
	}
	path := s.checkpointPath(pt, rep)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("campaign: writing checkpoint: %w", err)
	}
	err = core.SaveResults(f, r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: writing checkpoint %s: %w", path, err)
	}
	return nil
}

// loadCheckpoint restores a replicate summary from a previous campaign,
// reporting whether a usable checkpoint existed.
func (s *Spec) loadCheckpoint(pt point, rep int) (RunSummary, bool) {
	if s.CheckpointDir == "" {
		return RunSummary{}, false
	}
	f, err := os.Open(s.checkpointPath(pt, rep))
	if err != nil {
		return RunSummary{}, false
	}
	defer f.Close()
	r, err := core.LoadResults(f)
	if err != nil {
		return RunSummary{}, false
	}
	rs, err := Summarize(r, s.EnvelopeGrid)
	if err != nil {
		return RunSummary{}, false
	}
	rs.Point, rs.Rep, rs.Seed = pt.label, rep, RepSeed(s.Seed, rep)
	rs.FromCheckpoint = true
	return rs, true
}
