package tsdb

import (
	"math"
	"sort"
	"sync"
)

// Store is a concurrency-safe multi-series time-series database: named
// series, each an ordered list of sealed blocks plus one mutable append
// head. Appends on a warm head (no block seal, series already registered)
// perform zero allocations.
type Store struct {
	maxSamples int

	mu     sync.RWMutex
	byName map[string]uint32
	series []*memSeries
}

// memSeries is one series' storage: sealed blocks in time order, then the
// active head.
type memSeries struct {
	name    string
	id      uint32
	blocks  []Block
	head    appender
	samples int64
	// lastT and lastV mirror the most recent appended (or restored)
	// sample, so Latest can answer without decoding the head stream —
	// the rules engine reads every watched series once per eval tick.
	lastT int64
	lastV float64
}

// NewStore returns an empty store sealing blocks every maxSamples samples
// (DefaultBlockSamples when <= 0).
func NewStore(maxSamples int) *Store {
	if maxSamples <= 0 {
		maxSamples = DefaultBlockSamples
	}
	return &Store{maxSamples: maxSamples, byName: make(map[string]uint32)}
}

// EnsureSeries returns the ID for name, registering the series on first
// use. IDs are dense and start at 0.
func (s *Store) EnsureSeries(name string) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ensureLocked(name)
}

func (s *Store) ensureLocked(name string) uint32 {
	if id, ok := s.byName[name]; ok {
		return id
	}
	id := uint32(len(s.series))
	ms := &memSeries{name: name, id: id}
	ms.head.reset()
	s.series = append(s.series, ms)
	s.byName[name] = id
	return id
}

// Append adds one sample to the named series, registering it on first
// use. Timestamps must be non-decreasing per series.
func (s *Store) Append(name string, t int64, v float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(s.ensureLocked(name), t, v)
}

// AppendID adds one sample to a series previously registered with
// EnsureSeries: the map-free hot path for callers that ingest in bulk.
func (s *Store) AppendID(id uint32, t int64, v float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.series) {
		return ErrNoSeries
	}
	return s.appendLocked(id, t, v)
}

func (s *Store) appendLocked(id uint32, t int64, v float64) error {
	ms := s.series[id]
	if ms.head.count == 0 && len(ms.blocks) > 0 && t < ms.blocks[len(ms.blocks)-1].maxT {
		return ErrOutOfOrder
	}
	if err := ms.head.append(t, v); err != nil {
		return err
	}
	ms.samples++
	ms.lastT, ms.lastV = t, v
	if int(ms.head.count) >= s.maxSamples {
		ms.blocks = append(ms.blocks, ms.head.seal())
	}
	return nil
}

// Latest returns the named series' most recent sample without decoding
// any compressed data. It is the rules engine's per-tick read and
// performs zero allocations; ok is false for unknown or empty series.
func (s *Store) Latest(name string) (t int64, v float64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, known := s.byName[name]
	if !known {
		return 0, 0, false
	}
	ms := s.series[id]
	if ms.samples == 0 {
		return 0, 0, false
	}
	return ms.lastT, ms.lastV, true
}

// SeriesCount reports how many series are registered. It is the cheap
// change detector callers use to notice new series (e.g. the rules
// engine re-expanding wildcard instances) without listing them.
func (s *Store) SeriesCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.series)
}

// SeriesInfo describes one series' storage footprint.
type SeriesInfo struct {
	Name            string
	Samples         int64
	Blocks          int
	CompressedBytes int64
	MinTime         int64
	MaxTime         int64
}

// Series lists every series sorted by name.
func (s *Store) Series() []SeriesInfo {
	s.mu.RLock()
	out := make([]SeriesInfo, 0, len(s.series))
	for _, ms := range s.series {
		out = append(out, s.infoLocked(ms))
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Info returns one series' footprint.
func (s *Store) Info(name string) (SeriesInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.byName[name]
	if !ok {
		return SeriesInfo{}, false
	}
	return s.infoLocked(s.series[id]), true
}

func (s *Store) infoLocked(ms *memSeries) SeriesInfo {
	info := SeriesInfo{Name: ms.name, Samples: ms.samples, Blocks: len(ms.blocks)}
	for _, b := range ms.blocks {
		info.CompressedBytes += int64(len(b.data))
	}
	info.CompressedBytes += int64(len(ms.head.bw.bytes()))
	switch {
	case len(ms.blocks) > 0:
		info.MinTime = ms.blocks[0].minT
		info.MaxTime = ms.blocks[len(ms.blocks)-1].maxT
	case ms.head.count == 0:
		return info
	}
	if ms.head.count > 0 {
		if len(ms.blocks) == 0 {
			info.MinTime = ms.head.minT
		}
		info.MaxTime = ms.head.maxT
	}
	return info
}

// Stats is the store-wide footprint, served as telemetry gauges.
type Stats struct {
	Series          int
	Samples         int64
	Blocks          int
	CompressedBytes int64
}

// Stats sums every series' footprint.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Series: len(s.series)}
	for _, ms := range s.series {
		st.Samples += ms.samples
		st.Blocks += len(ms.blocks)
		for _, b := range ms.blocks {
			st.CompressedBytes += int64(len(b.data))
		}
		st.CompressedBytes += int64(len(ms.head.bw.bytes()))
	}
	return st
}

// Blocks returns the named series' sealed blocks plus the head snapshotted
// as a final block (nil when the series is empty). The returned blocks are
// immutable and safe to hold while the store keeps appending.
func (s *Store) Blocks(name string) ([]Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.byName[name]
	if !ok {
		return nil, ErrNoSeries
	}
	ms := s.series[id]
	out := make([]Block, 0, len(ms.blocks)+1)
	out = append(out, ms.blocks...)
	if ms.head.count > 0 {
		out = append(out, snapshotHead(&ms.head))
	}
	return out, nil
}

// snapshotHead copies the head's stream into a Block without resetting it.
func snapshotHead(a *appender) Block {
	return Block{
		count: a.count,
		minT:  a.minT,
		maxT:  a.maxT,
		data:  append([]byte(nil), a.bw.bytes()...),
	}
}

// Query returns an iterator over the named series' samples in [from, to]
// (UnixNano, inclusive). Blocks wholly outside the window are skipped via
// the per-block index — repeated dashboard window queries touch only the
// blocks they need.
func (s *Store) Query(name string, from, to int64) (*SeriesIter, error) {
	blocks, err := s.Blocks(name)
	if err != nil {
		return nil, err
	}
	return NewSeriesIter(blocks, from, to), nil
}

// QueryAll returns an iterator over the named series' full history.
func (s *Store) QueryAll(name string) (*SeriesIter, error) {
	return s.Query(name, math.MinInt64, math.MaxInt64)
}

// SeriesIter iterates a window across an ordered block list, decoding
// forward within each relevant block.
type SeriesIter struct {
	blocks   []Block
	from, to int64
	idx      int
	cur      Iter
	started  bool
	err      error
}

// NewSeriesIter returns an iterator over [from, to] (inclusive) across
// blocks, which must be ordered by time.
func NewSeriesIter(blocks []Block, from, to int64) *SeriesIter {
	// Random access: binary-search the first block that can contain the
	// window's start.
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].maxT >= from })
	return &SeriesIter{blocks: blocks, from: from, to: to, idx: i}
}

// Next advances to the next in-window sample.
func (si *SeriesIter) Next() bool {
	for {
		if si.err != nil {
			return false
		}
		if !si.started {
			if si.idx >= len(si.blocks) || si.blocks[si.idx].minT > si.to {
				return false
			}
			si.cur = si.blocks[si.idx].Iter()
			si.started = true
		}
		for si.cur.Next() {
			if si.cur.T() < si.from {
				continue
			}
			if si.cur.T() > si.to {
				return false
			}
			return true
		}
		if err := si.cur.Err(); err != nil {
			si.err = err
			return false
		}
		si.idx++
		si.started = false
	}
}

// At returns the current sample.
func (si *SeriesIter) At() (int64, float64) { return si.cur.At() }

// Err returns the corruption error that stopped iteration, if any.
func (si *SeriesIter) Err() error { return si.err }
