package timeseries

import (
	"fmt"

	"frostlab/internal/tsdb"
)

// Compact encodes the series into compressed tsdb blocks of up to
// blockSamples samples each (tsdb.DefaultBlockSamples when <= 0). The
// encoding is bitwise lossless: a tsdb.SeriesIter over the blocks yields
// identical timestamps and identical float64 bits. Campaigns compact
// their per-replicate reductions through it.
func (s *Series) Compact(blockSamples int) ([]tsdb.Block, error) {
	b := tsdb.NewBuilder(blockSamples)
	for _, p := range s.points {
		if err := b.Append(p.At.UnixNano(), p.Value); err != nil {
			return nil, fmt.Errorf("timeseries: compacting %s: %w", s.name, err)
		}
	}
	return b.Finish(), nil
}
