package workload

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzScanFBZ hardens the §4.2.2 forensic scan against arbitrary streams:
// it must never panic and must report exactly what the straight-line scan
// reports.
func FuzzScanFBZ(f *testing.F) {
	// Small seeds keep each minimization of a new input short.
	var buf bytes.Buffer
	blocks, err := CompressFBZ(&buf, strings.NewReader("static inline int probe(struct dev *d) { return 0; }\n"), 14)
	if err != nil {
		f.Fatal(err)
	}
	if blocks != 4 {
		f.Fatalf("seed archive has %d blocks, want 4", blocks)
	}
	archive := buf.Bytes()
	f.Add(archive)
	flipped := append([]byte(nil), archive...)
	if err := CorruptBit(flipped, 1, func(n int) int { return n / 2 }); err != nil {
		f.Fatal(err)
	}
	f.Add(flipped)
	for _, n := range []int{0, 3, 4, 10, 22, len(archive) / 2, len(archive) - 1} {
		f.Add(archive[:n])
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		blocks, err := scanAll(bytes.NewReader(stream))
		want, wantErr := scanFBZStraight(bytes.NewReader(stream))
		if diff := sameScan(blocks, err, want, wantErr); diff != nil {
			t.Fatalf("scan differs from the straight-line scan: %v", diff)
		}
	})
}
