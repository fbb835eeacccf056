package workload

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"testing"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool drops
// entries at random and allocation counts stop being repeatable.
var raceEnabled bool

// scannedBlock is one block a scan reported, with a copy of the content of
// a good block (nil for bad ones).
type scannedBlock struct {
	BlockInfo
	Data []byte
}

// scanAll runs scanFBZ over the stream and keeps every block it reports.
func scanAll(r io.Reader) ([]scannedBlock, error) {
	var out []scannedBlock
	err := scanFBZ(r, func(b BlockInfo, data []byte) error {
		out = append(out, scannedBlock{b, bytes.Clone(data)})
		return nil
	})
	return out, err
}

// scanFBZStraight is the forensic scan written straight through, with a
// fresh DEFLATE reader and fresh buffers for every block. It is the
// reference the reusing scan must match. The one departure from a plain
// make-then-io.ReadFull of the payload is for payloads longer than what is
// left of the stream: it reports what io.ReadFull reports on a short
// bytes.Reader without first allocating the claimed length.
func scanFBZStraight(br *bytes.Reader) ([]scannedBlock, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("workload: reading file magic: %w", err)
	}
	if !bytes.Equal(magic, fbzFileMagic) {
		return nil, ErrNotFBZ
	}
	var out []scannedBlock
	for i := 0; ; i++ {
		var hdr [18]byte
		_, err := io.ReadFull(br, hdr[:])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("workload: block %d header: %w", i, err)
		}
		info := scannedBlock{BlockInfo: BlockInfo{Index: i}}
		if !bytes.Equal(hdr[:6], fbzBlockMagic) {
			info.Err = "block magic missing"
			out = append(out, info)
			return out, nil
		}
		rawLen := binary.BigEndian.Uint32(hdr[6:10])
		compLen := binary.BigEndian.Uint32(hdr[10:14])
		wantCRC := binary.BigEndian.Uint32(hdr[14:18])
		if int64(compLen) > int64(br.Len()) {
			err := io.ErrUnexpectedEOF
			if br.Len() == 0 {
				err = io.EOF
			}
			info.Err = fmt.Sprintf("truncated block payload: %v", err)
			out = append(out, info)
			return out, nil
		}
		comp := make([]byte, compLen)
		if _, err := io.ReadFull(br, comp); err != nil {
			info.Err = fmt.Sprintf("truncated block payload: %v", err)
			out = append(out, info)
			return out, nil
		}
		data, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
		switch {
		case err != nil:
			info.Err = fmt.Sprintf("deflate: %v", err)
		case uint32(len(data)) != rawLen:
			info.Err = fmt.Sprintf("length %d, header says %d", len(data), rawLen)
		case crc32.ChecksumIEEE(data) != wantCRC:
			info.Err = "CRC mismatch"
		default:
			info.OK = true
			info.Data = data
		}
		out = append(out, info)
	}
}

// sameScan reports the first difference between two scan results.
func sameScan(got []scannedBlock, gotErr error, want []scannedBlock, wantErr error) error {
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Errorf("error %v, want %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d blocks, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.OK != w.OK || g.Err != w.Err || !bytes.Equal(g.Data, w.Data) {
			return fmt.Errorf("block %d: got {%d %v %q %d bytes}, want {%d %v %q %d bytes}",
				i, g.Index, g.OK, g.Err, len(g.Data), w.Index, w.OK, w.Err, len(w.Data))
		}
	}
	return nil
}

// TestScanFBZMatchesStraightLine flips every bit of a 3-block archive,
// headers and file magic included, and checks that the scan reusing one
// reader and its buffers reports exactly what the straight-line scan does.
func TestScanFBZMatchesStraightLine(t *testing.T) {
	tree, err := GenerateTree("straight", 4, 2500)
	if err != nil {
		t.Fatal(err)
	}
	archive, res, err := Pack(tree, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 3 {
		t.Fatalf("archive has %d blocks, want 3", res.Blocks)
	}
	flipped := make([]byte, len(archive))
	for bit := -1; bit < 8*len(archive); bit++ {
		copy(flipped, archive)
		if bit >= 0 {
			flipped[bit/8] ^= 1 << (bit % 8)
		}
		got, gotErr := scanAll(bytes.NewReader(flipped))
		want, wantErr := scanFBZStraight(bytes.NewReader(flipped))
		if err := sameScan(got, gotErr, want, wantErr); err != nil {
			t.Fatalf("bit %d flipped: %v", bit, err)
		}
	}
}

// packGeometries are three tree geometries with the archive md5 recorded
// before the DEFLATE writer was pooled.
var packGeometries = []struct {
	seed      string
	files     int
	bytes     int64
	blockSize int
	md5       string
}{
	{"kernel-2.6", 40, 256 << 10, 8 << 10, "fd65418df9ab864617d439fb30fea4d3"},
	{"geom-b", 7, 100_000, 1000, "541d96b365aeb8b89ef8a135abb31398"},
	{"geom-c", 64, 1 << 20, bzip2BlockSize, "3fe9c47a13208029c15a1c8bfea17250"},
}

// packGeometry packs geometry i and reports a digest that differs from the
// recorded one.
func packGeometry(tree *SourceTree, i int) error {
	g := packGeometries[i]
	_, res, err := Pack(tree, g.blockSize)
	if err != nil {
		return err
	}
	if got := res.MD5.String(); got != g.md5 {
		return fmt.Errorf("%s/%d files/%d bytes/block %d: md5 %s, want %s", g.seed, g.files, g.bytes, g.blockSize, got, g.md5)
	}
	return nil
}

func geometryTrees(t *testing.T) []*SourceTree {
	t.Helper()
	trees := make([]*SourceTree, len(packGeometries))
	for i, g := range packGeometries {
		tree, err := GenerateTree(g.seed, g.files, g.bytes)
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tree
	}
	return trees
}

// TestPackMD5Geometries packs the recorded geometries in turn, twice and
// in both orders, so a pooled writer that carried state from one call or
// block size into the next would change a digest.
func TestPackMD5Geometries(t *testing.T) {
	trees := geometryTrees(t)
	for _, i := range []int{0, 1, 2, 2, 1, 0} {
		if err := packGeometry(trees[i], i); err != nil {
			t.Error(err)
		}
	}
}

// TestPackConcurrent packs every geometry from several goroutines at once,
// all drawing writers from the shared pool.
func TestPackConcurrent(t *testing.T) {
	trees := geometryTrees(t)
	var wg sync.WaitGroup
	for g := 0; g < 2*len(trees); g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := packGeometry(trees[i], i); err != nil {
				t.Error(err)
			}
		}(g % len(trees))
	}
	wg.Wait()
}

// TestScanFBZHugeCompLen feeds a 24-byte stream whose header claims a
// 3.75 GiB payload: the scan must report the truncation without first
// allocating the claimed length.
func TestScanFBZHugeCompLen(t *testing.T) {
	stream := append([]byte(nil), fbzFileMagic...)
	stream = append(stream, fbzBlockMagic...)
	stream = binary.BigEndian.AppendUint32(stream, 8192)       // raw length
	stream = binary.BigEndian.AppendUint32(stream, 0xF0000000) // compressed length
	stream = binary.BigEndian.AppendUint32(stream, 0)          // CRC
	stream = append(stream, 0xAB, 0xCD)
	if len(stream) != 24 {
		t.Fatalf("stream is %d bytes, want 24", len(stream))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	blocks, err := scanAll(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || blocks[0].OK || blocks[0].Err != "truncated block payload: unexpected EOF" {
		t.Fatalf("scan = %+v, want one block reporting a truncated payload", blocks)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("scan allocated %d bytes for a 24-byte stream, want under 1 MB", alloc)
	}
}

// TestPackAllocsFlatInBlocks checks that warm Pack allocates per call, not
// per compression block: a 64-block tree costs no more objects than a
// 16-block tree with the same number of files.
func TestPackAllocsFlatInBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	allocs := func(blocks int64) (float64, int) {
		tree, err := GenerateTree("alloc", 16, blocks*8<<10)
		if err != nil {
			t.Fatal(err)
		}
		_, res, err := Pack(tree, 8<<10)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := Pack(tree, 8<<10); err != nil {
				t.Fatal(err)
			}
		}), res.Blocks
	}
	small, smallBlocks := allocs(16)
	large, largeBlocks := allocs(64)
	if largeBlocks < 4*smallBlocks-8 {
		t.Fatalf("trees have %d and %d blocks; want about 4x apart", smallBlocks, largeBlocks)
	}
	if large > small+4 {
		t.Errorf("Pack: %v allocs for %d blocks, %v for %d blocks; want no growth with the block count",
			large, largeBlocks, small, smallBlocks)
	}
}

// TestScanAllocsPerBlock checks that the forensic scan without Data
// allocates nothing per block beyond what compress/flate itself allocates
// to build each block's Huffman tables. An archive whose blocks repeat four
// times may cost at most three more inflations' worth of objects.
func TestScanAllocsPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under -race")
	}
	tree, err := GenerateTree("alloc", 16, 16*8<<10)
	if err != nil {
		t.Fatal(err)
	}
	archive, _, err := Pack(tree, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	repeated := append([]byte(nil), archive...)
	for i := 0; i < 3; i++ {
		repeated = append(repeated, archive[len(fbzFileMagic):]...)
	}
	scanAllocs := func(a []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := scanFBZ(bytes.NewReader(a), func(BlockInfo, []byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	offsets, err := blockPayloadOffsets(archive)
	if err != nil {
		t.Fatal(err)
	}
	var src bytes.Reader
	fr := flate.NewReader(&src)
	buf := make([]byte, 64<<10)
	inflate := testing.AllocsPerRun(10, func() {
		for _, o := range offsets {
			src.Reset(archive[o[0] : o[0]+o[1]])
			if err := fr.(flate.Resetter).Reset(&src, nil); err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := fr.Read(buf); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	once, four := scanAllocs(archive), scanAllocs(repeated)
	if extra := four - once; extra > 3*inflate {
		t.Errorf("scan: %v allocs for %d blocks, %v for %d; compress/flate accounts for %v per copy of the archive, want no more",
			once, len(offsets), four, 4*len(offsets), inflate)
	}
}
