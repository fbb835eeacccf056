package tsdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Segment format: the store's checkpoint durability, mmap-free and in the
// same spirit as internal/wire's framing — every record length-prefixed
// and integrity-checked, so a torn or bit-flipped checkpoint is detected,
// never silently decoded.
//
//	magic   "FTSB" 0x01
//	record  u32 payloadLen | payload | u32 CRC32-IEEE(payload)
//	payload u16 nameLen | name
//	        u32 count | i64 minT | i64 maxT
//	        u32 dataLen | compressed sample stream
//
// Records appear in (series name, time) order; a clean EOF at a record
// boundary ends the segment. The head is written as a snapshot block, so
// a segment captures every appended sample.

var segMagic = [5]byte{'F', 'T', 'S', 'B', 1}

// maxSegRecord bounds one record's payload, mirroring wire.MaxFrame.
const maxSegRecord = 4 << 20

// WriteSegment writes every series — sealed blocks plus head snapshot —
// as one segment.
func (s *Store) WriteSegment(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(segMagic[:]); err != nil {
		return err
	}
	for _, info := range s.Series() {
		blocks, err := s.Blocks(info.Name)
		if err != nil {
			return err
		}
		for _, b := range blocks {
			if err := writeRecord(bw, info.Name, b); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeRecord(w io.Writer, name string, b Block) error {
	if len(name) > 0xffff {
		return fmt.Errorf("tsdb: series name of %d bytes too long", len(name))
	}
	payload := make([]byte, 0, 2+len(name)+24+len(b.data))
	payload = binary.BigEndian.AppendUint16(payload, uint16(len(name)))
	payload = append(payload, name...)
	payload = binary.BigEndian.AppendUint32(payload, b.count)
	payload = binary.BigEndian.AppendUint64(payload, uint64(b.minT))
	payload = binary.BigEndian.AppendUint64(payload, uint64(b.maxT))
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(b.data)))
	payload = append(payload, b.data...)
	if len(payload) > maxSegRecord {
		return fmt.Errorf("tsdb: segment record of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(hdr[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(hdr[:])
	return err
}

// ReadSegment loads a segment's blocks into the store, registering series
// as needed. Blocks must arrive in time order per series and after any
// data the store already holds; new appends then continue after the
// restored history. CRC or structural damage returns ErrCorrupt.
func (s *Store) ReadSegment(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
	}
	if magic != segMagic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic[:])
	}
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("%w: record header: %v", ErrCorrupt, err)
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxSegRecord {
			return fmt.Errorf("%w: record claims %d bytes", ErrCorrupt, n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return fmt.Errorf("%w: record body: %v", ErrCorrupt, err)
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return fmt.Errorf("%w: record checksum: %v", ErrCorrupt, err)
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[:]) {
			return fmt.Errorf("%w: record checksum mismatch", ErrCorrupt)
		}
		name, b, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		if err := s.addBlock(name, b); err != nil {
			return err
		}
	}
}

func decodeRecord(p []byte) (string, Block, error) {
	if len(p) < 2 {
		return "", Block{}, fmt.Errorf("%w: record too short", ErrCorrupt)
	}
	nameLen := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < nameLen+24 {
		return "", Block{}, fmt.Errorf("%w: record truncated", ErrCorrupt)
	}
	name := string(p[:nameLen])
	p = p[nameLen:]
	b := Block{
		count: binary.BigEndian.Uint32(p),
		minT:  int64(binary.BigEndian.Uint64(p[4:])),
		maxT:  int64(binary.BigEndian.Uint64(p[12:])),
	}
	dataLen := int(binary.BigEndian.Uint32(p[20:]))
	p = p[24:]
	if len(p) != dataLen {
		return "", Block{}, fmt.Errorf("%w: data length %d, have %d bytes", ErrCorrupt, dataLen, len(p))
	}
	b.data = append([]byte(nil), p...)
	if b.count == 0 || b.minT > b.maxT {
		return "", Block{}, fmt.Errorf("%w: empty or inverted block", ErrCorrupt)
	}
	return name, b, nil
}

// addBlock appends a restored block to its series.
func (s *Store) addBlock(name string, b Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.ensureLocked(name)
	ms := s.series[id]
	if ms.head.count > 0 {
		return fmt.Errorf("tsdb: restoring %q into a series with live head samples", name)
	}
	if len(ms.blocks) > 0 && b.minT < ms.blocks[len(ms.blocks)-1].maxT {
		return fmt.Errorf("%w: %q block starts before restored history ends", ErrOutOfOrder, name)
	}
	ms.blocks = append(ms.blocks, b)
	ms.samples += int64(b.count)
	// Keep Latest coherent across a restore: decode the block's final
	// sample. Restores are cold-path, so the linear scan is acceptable.
	it := b.Iter()
	for it.Next() {
		ms.lastT, ms.lastV = it.At()
	}
	if err := it.Err(); err != nil {
		return err
	}
	return nil
}
