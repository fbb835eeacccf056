package tsdb

import "math"

// Iter is a forward decoder over one compressed sample stream. It holds a
// few words of state and reads bits on demand — no sample slice is ever
// materialised. The zero Iter is exhausted.
//
//	it := block.Iter()
//	for it.Next() {
//	    t, v := it.At()
//	    ...
//	}
//	if err := it.Err(); err != nil { ... }
type Iter struct {
	br    bitReader
	count uint32
	i     uint32

	t     int64
	delta int64
	v     uint64

	leading, trailing uint8
	decN, decDelta    int64
	decOK             bool

	err error
}

// newIter decodes count samples from data.
func newIter(data []byte, count uint32) Iter {
	return Iter{br: newBitReader(data), count: count,
		leading: invalidWindow, trailing: invalidWindow}
}

// Next advances to the next sample, reporting whether one was decoded.
// It returns false at the end of the stream or on corruption; Err
// distinguishes the two.
func (it *Iter) Next() bool {
	if it.err != nil || it.i >= it.count {
		return false
	}
	if it.i == 0 {
		it.t = int64(it.br.readBits(64))
		it.v = it.br.readBits(64)
	} else {
		dod := readVarint(&it.br)
		it.delta += dod
		if it.delta < 0 {
			it.err = ErrCorrupt
			return false
		}
		it.t += it.delta
		if !it.readValue() {
			return false
		}
	}
	if it.br.short {
		it.err = ErrCorrupt
		return false
	}
	// Mirror the appender's decimal bookkeeping so the delta chain and
	// the XOR window stay in lockstep with the encoder.
	if n, ok := decimalInt(math.Float64frombits(it.v)); ok {
		if it.decOK {
			it.decDelta = n - it.decN
		} else {
			it.decDelta = 0
		}
		it.decN, it.decOK = n, true
	} else {
		it.decOK = false
	}
	it.i++
	return true
}

// readValue decodes a non-first value into it.v.
func (it *Iter) readValue() bool {
	if it.br.readBit() == 0 {
		// Decimal fast path: delta-of-delta of the scaled integer. The
		// encoder only emits this mode when the previous decimal state
		// was valid; a stream that says otherwise is corrupt.
		if !it.decOK {
			it.err = ErrCorrupt
			return false
		}
		dod := readVarint(&it.br)
		n := it.decN + it.decDelta + dod
		it.v = math.Float64bits(float64(n) / decScale)
		return true
	}
	if it.br.readBit() == 0 {
		return true // XOR == 0: value bits repeat
	}
	if it.br.readBit() == 0 {
		// Reuse the previous leading/trailing window.
		if it.leading == invalidWindow {
			it.err = ErrCorrupt
			return false
		}
		sig := uint(64 - it.leading - it.trailing)
		it.v ^= it.br.readBits(sig) << it.trailing
		return true
	}
	lead := uint8(it.br.readBits(5))
	sig := uint(it.br.readBits(6)) + 1
	if uint(lead)+sig > 64 {
		it.err = ErrCorrupt
		return false
	}
	trail := uint8(64 - uint(lead) - sig)
	it.v ^= it.br.readBits(sig) << trail
	it.leading, it.trailing = lead, trail
	return true
}

// At returns the current sample.
func (it *Iter) At() (int64, float64) { return it.t, math.Float64frombits(it.v) }

// T returns the current sample's timestamp (UnixNano).
func (it *Iter) T() int64 { return it.t }

// Err returns the corruption error that stopped the iterator, if any.
func (it *Iter) Err() error { return it.err }
