package workload

import (
	"archive/tar"
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

// TestTarReadBack verifies the pipeline's first stage against the standard
// library's own reader: every file of the tree comes back byte-identical
// and in order, with the deterministic metadata the reference digest
// depends on.
func TestTarReadBack(t *testing.T) {
	tree := smallTree(t)
	var buf bytes.Buffer
	if err := WriteTar(&buf, tree); err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(&buf)
	i := 0
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want := tree.Files()[i]
		if hdr.Name != want.Path {
			t.Fatalf("member %d is %q, want %q", i, hdr.Name, want.Path)
		}
		if hdr.Mode != 0o644 {
			t.Errorf("member %q mode %o", hdr.Name, hdr.Mode)
		}
		if !hdr.ModTime.Equal(tarTimestamp) {
			t.Errorf("member %q mtime %v not pinned; archive would not be reproducible", hdr.Name, hdr.ModTime)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want.Data) {
			t.Fatalf("member %q content differs", hdr.Name)
		}
		i++
	}
	if i != tree.NumFiles() {
		t.Errorf("read back %d members, want %d", i, tree.NumFiles())
	}
}

// TestAnyBitFlipDetected is the property behind §4.2.2's forensics: flip
// any single bit anywhere in any block payload and either the containing
// block fails its scan, or — the one physical exception — the flip landed
// in dead DEFLATE padding bits and the block still decodes to identical
// content (the archive's md5 changes but no data was damaged, exactly
// what a bzip2recover pass finding zero bad blocks would mean).
func TestAnyBitFlipDetected(t *testing.T) {
	tree, err := GenerateTree("bitflip", 10, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	archive, res, err := Pack(tree, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := scanAll(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	f := func(blockSeed, byteSeed, bitSeed uint16) bool {
		block := int(blockSeed) % res.Blocks
		corrupted := append([]byte(nil), archive...)
		if err := CorruptBit(corrupted, block, func(n int) int {
			if n == 8 {
				return int(bitSeed) % 8
			}
			return int(byteSeed) % n
		}); err != nil {
			return false
		}
		blocks, err := scanAll(bytes.NewReader(corrupted))
		if err != nil {
			return false
		}
		for _, b := range blocks {
			if b.Index == block {
				if !b.OK {
					return true // damage flagged in the right block
				}
				// Scanned clean: only acceptable if truly harmless.
				return bytes.Equal(b.Data, clean[block].Data)
			}
			if !b.OK {
				return false // an innocent block was flagged
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFBZGoodBlocksRecoverable confirms the bzip2recover property: after
// corrupting one block, every *other* block's content is still recovered
// intact.
func TestFBZGoodBlocksRecoverable(t *testing.T) {
	tree, err := GenerateTree("recover", 10, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	archive, res, err := Pack(tree, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	cleanBlocks, err := scanAll(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	target := res.Blocks / 3
	if err := CorruptBit(archive, target, func(n int) int { return n / 2 }); err != nil {
		t.Fatal(err)
	}
	blocks, err := scanAll(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if b.Index == target {
			if b.OK {
				t.Fatal("corrupted block scanned OK")
			}
			continue
		}
		if !b.OK {
			t.Fatalf("innocent block %d flagged", b.Index)
		}
		if !bytes.Equal(b.Data, cleanBlocks[b.Index].Data) {
			t.Fatalf("block %d content changed by a flip elsewhere", b.Index)
		}
	}
}
