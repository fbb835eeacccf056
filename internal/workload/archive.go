package workload

import (
	"archive/tar"
	"bytes"
	"compress/flate"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"
)

// FBZ container constants.
var (
	fbzFileMagic  = []byte("FBZ1")
	fbzBlockMagic = []byte{0x31, 0x41, 0x59, 0x26, 0x53, 0x59} // pi digits, like bzip2's block magic
)

// ErrNotFBZ reports a stream without the FBZ file magic.
var ErrNotFBZ = errors.New("workload: not an FBZ archive")

// Digest is an md5 archive checksum, comparable with ==.
type Digest [md5.Size]byte

// String formats the digest the way md5sum prints it.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:]) }

// ArchiveResult describes a completed pack run.
type ArchiveResult struct {
	// MD5 is the digest of the complete compressed archive.
	MD5 Digest
	// Blocks is the number of compression blocks written.
	Blocks int
	// TarBytes is the size of the intermediate tar stream.
	TarBytes int64
	// CompressedBytes is the size of the FBZ output.
	CompressedBytes int64
}

// tarTimestamp is the fixed modification time used for all archive
// members, keeping the archive bit-reproducible across cycles (§3.5: if
// hashes match, "the tarball is overwritten in the next cycle").
var tarTimestamp = time.Date(2010, time.February, 19, 0, 0, 0, 0, time.UTC)

// WriteTar writes the tree as a deterministic tar stream.
func WriteTar(w io.Writer, tree *SourceTree) error {
	tw := tar.NewWriter(w)
	for _, f := range tree.Files() {
		hdr := &tar.Header{
			Name:    f.Path,
			Mode:    0o644,
			Size:    int64(len(f.Data)),
			ModTime: tarTimestamp,
			Format:  tar.FormatUSTAR,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return fmt.Errorf("workload: tar header %s: %w", f.Path, err)
		}
		if _, err := tw.Write(f.Data); err != nil {
			return fmt.Errorf("workload: tar body %s: %w", f.Path, err)
		}
	}
	return tw.Close()
}

// flateWriters holds BestCompression DEFLATE writers between blocks and
// between calls: each carries about 1 MB of window and hash tables, far
// more than the 8 KiB block it compresses. Reset makes a pooled writer
// equivalent to a fresh one, so the output bits do not depend on which
// writer compressed a block.
var flateWriters = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(nil, flate.BestCompression)
	if err != nil {
		panic(err) // only an invalid level fails
	}
	return fw
}}

// fbzHeaderLen is the size of a block header: magic, raw length,
// compressed length and CRC-32.
const fbzHeaderLen = 18

// CompressFBZ compresses a stream into the FBZ block format: a file magic
// followed by independently DEFLATE-compressed blocks of blockSize
// uncompressed bytes, each carrying the block magic, both lengths, and a
// CRC-32 of its uncompressed content.
func CompressFBZ(w io.Writer, r io.Reader, blockSize int) (blocks int, err error) {
	if blockSize <= 0 {
		return 0, fmt.Errorf("workload: non-positive block size %d", blockSize)
	}
	if _, err := w.Write(fbzFileMagic); err != nil {
		return 0, err
	}
	fw := flateWriters.Get().(*flate.Writer)
	defer flateWriters.Put(fw)
	buf := make([]byte, blockSize)
	var block bytes.Buffer
	for {
		n, rerr := io.ReadFull(r, buf)
		if n > 0 {
			if err := writeFBZBlock(w, fw, &block, buf[:n]); err != nil {
				return blocks, err
			}
			blocks++
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			return blocks, nil
		}
		if rerr != nil {
			return blocks, rerr
		}
	}
}

// writeFBZBlock frames chunk as one block in the reused buffer block and
// writes it to w.
func writeFBZBlock(w io.Writer, fw *flate.Writer, block *bytes.Buffer, chunk []byte) error {
	block.Reset()
	var hdr [fbzHeaderLen]byte
	block.Write(hdr[:])
	fw.Reset(block)
	if _, err := fw.Write(chunk); err != nil {
		return err
	}
	if err := fw.Close(); err != nil {
		return err
	}
	b := block.Bytes()
	copy(b[:6], fbzBlockMagic)
	binary.BigEndian.PutUint32(b[6:10], uint32(len(chunk)))
	binary.BigEndian.PutUint32(b[10:14], uint32(len(b)-fbzHeaderLen))
	binary.BigEndian.PutUint32(b[14:18], crc32.ChecksumIEEE(chunk))
	_, err := w.Write(b)
	return err
}

// BlockInfo is the result of scanning one FBZ block, in the spirit of
// bzip2recover: each block is independently decodable and verifiable.
type BlockInfo struct {
	Index int
	// OK reports whether the block decompressed and matched its CRC.
	OK bool
	// Err describes the failure for bad blocks.
	Err string
}

// fbzScanner is the decode state scanFBZ reuses across blocks: one
// DEFLATE reader, the compressed payload and the decoded content. The
// readers live here, not on the stack, so that handing them to an
// io.Reader parameter allocates nothing per block.
type fbzScanner struct {
	hdr     [fbzHeaderLen]byte
	payload bytes.Buffer
	data    bytes.Buffer
	lim     io.LimitedReader
	src     bytes.Reader
	flate   io.Reader
}

// scanFBZ walks an FBZ stream and calls visit once per block, stopping at
// the first error visit returns. data holds the content of a good block
// and is valid only until visit returns. A corrupted block is reported but
// does not stop the scan — this is the bzip2recover-style tool the
// reproduction of §4.2.2 uses to show that exactly one block of 396 was
// damaged.
func scanFBZ(r io.Reader, visit func(info BlockInfo, data []byte) error) error {
	s := &fbzScanner{}
	magic := s.hdr[:len(fbzFileMagic)]
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("workload: reading file magic: %w", err)
	}
	if !bytes.Equal(magic, fbzFileMagic) {
		return ErrNotFBZ
	}
	s.flate = flate.NewReader(&s.src)
	for i := 0; ; i++ {
		hdr := s.hdr[:]
		_, err := io.ReadFull(r, hdr)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("workload: block %d header: %w", i, err)
		}
		info := BlockInfo{Index: i}
		if !bytes.Equal(hdr[:6], fbzBlockMagic) {
			// Without the magic the stream is unframed; report and stop.
			info.Err = "block magic missing"
			return visit(info, nil)
		}
		rawLen := binary.BigEndian.Uint32(hdr[6:10])
		compLen := binary.BigEndian.Uint32(hdr[10:14])
		wantCRC := binary.BigEndian.Uint32(hdr[14:18])
		// The payload buffer grows only as bytes arrive: compLen comes
		// from the stream and may be anything up to 4 GiB.
		if err := s.readPayload(r, int64(compLen)); err != nil {
			info.Err = fmt.Sprintf("truncated block payload: %v", err)
			return visit(info, nil)
		}
		data, err := s.decode()
		switch {
		case err != nil:
			info.Err = fmt.Sprintf("deflate: %v", err)
		case uint32(len(data)) != rawLen:
			info.Err = fmt.Sprintf("length %d, header says %d", len(data), rawLen)
		case crc32.ChecksumIEEE(data) != wantCRC:
			info.Err = "CRC mismatch"
		default:
			info.OK = true
		}
		if !info.OK {
			data = nil
		}
		if err := visit(info, data); err != nil {
			return err
		}
	}
}

// readPayload reads exactly n bytes of r into s.payload. A short read
// fails the way io.ReadFull does: io.EOF when nothing arrived,
// io.ErrUnexpectedEOF when some did, or the reader's own error.
func (s *fbzScanner) readPayload(r io.Reader, n int64) error {
	s.payload.Reset()
	s.lim = io.LimitedReader{R: r, N: n}
	got, err := s.payload.ReadFrom(&s.lim)
	switch {
	case got == n:
		return nil
	case err != nil:
		return err
	case got == 0:
		return io.EOF
	default:
		return io.ErrUnexpectedEOF
	}
}

// decode inflates s.payload into s.data.
func (s *fbzScanner) decode() ([]byte, error) {
	s.src.Reset(s.payload.Bytes())
	if err := s.flate.(flate.Resetter).Reset(&s.src, nil); err != nil {
		return nil, err
	}
	s.data.Reset()
	_, err := s.data.ReadFrom(s.flate)
	return s.data.Bytes(), err
}

// Pack runs the full §3.5 pipeline: tar the tree, compress to FBZ, and
// return the md5 of the compressed archive. The archive bytes are returned
// so callers can store the tarball when verification fails ("If the
// results differ, the packed tarball is stored").
func Pack(tree *SourceTree, blockSize int) ([]byte, ArchiveResult, error) {
	// A USTAR member is a 512-byte header plus its data padded to 512
	// bytes, and two zero records end the stream.
	tarBuf := bytes.NewBuffer(make([]byte, 0, tree.TotalBytes()+int64(tree.NumFiles())*1024+1024))
	if err := WriteTar(tarBuf, tree); err != nil {
		return nil, ArchiveResult{}, err
	}
	tarBytes := int64(tarBuf.Len())
	// Generated source compresses to about a third of its tar stream, so
	// half of it holds the archive without regrowing the buffer.
	out := bytes.NewBuffer(make([]byte, 0, len(fbzFileMagic)+tarBuf.Len()/2))
	blocks, err := CompressFBZ(out, tarBuf, blockSize)
	if err != nil {
		return nil, ArchiveResult{}, err
	}
	res := ArchiveResult{
		MD5:             md5.Sum(out.Bytes()),
		Blocks:          blocks,
		TarBytes:        tarBytes,
		CompressedBytes: int64(out.Len()),
	}
	return out.Bytes(), res, nil
}

// CorruptBit flips a single bit inside the payload of the given block,
// modelling the single-page memory error the paper's forensics identified.
// The archive is modified in place; the bit offset within the block is
// chosen by the pick function (e.g. rng.Intn).
func CorruptBit(archive []byte, block int, pick func(n int) int) error {
	offsets, err := blockPayloadOffsets(archive)
	if err != nil {
		return err
	}
	if block < 0 || block >= len(offsets) {
		return fmt.Errorf("workload: block %d out of range (%d blocks)", block, len(offsets))
	}
	start, length := offsets[block][0], offsets[block][1]
	if length == 0 {
		return fmt.Errorf("workload: block %d has empty payload", block)
	}
	byteIdx := start + pick(length)
	bit := uint(pick(8))
	archive[byteIdx] ^= 1 << bit
	return nil
}

// blockPayloadOffsets returns (offset, length) of each block's compressed
// payload within the raw archive bytes.
func blockPayloadOffsets(archive []byte) ([][2]int, error) {
	if len(archive) < 4 || !bytes.Equal(archive[:4], fbzFileMagic) {
		return nil, ErrNotFBZ
	}
	var out [][2]int
	pos := 4
	for pos < len(archive) {
		if pos+18 > len(archive) {
			return nil, fmt.Errorf("workload: truncated block header at %d", pos)
		}
		if !bytes.Equal(archive[pos:pos+6], fbzBlockMagic) {
			return nil, fmt.Errorf("workload: bad block magic at %d", pos)
		}
		compLen := int(binary.BigEndian.Uint32(archive[pos+10 : pos+14]))
		payload := pos + 18
		if payload+compLen > len(archive) {
			return nil, fmt.Errorf("workload: truncated block payload at %d", payload)
		}
		out = append(out, [2]int{payload, compLen})
		pos = payload + compLen
	}
	return out, nil
}
