package workload_test

import (
	"fmt"
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/workload"
)

// The full §3.5 pipeline, then the §4.2.2 forensics: a host's cycle
// corrupts one bit, the hash changes, and the bzip2recover-style scan finds
// the single damaged block.
func ExamplePack() {
	tree, _ := workload.GenerateTree("kernel-2.6", 20, 64<<10)
	_, res, _ := workload.Pack(tree, 8<<10)
	fmt.Printf("packed %d files into %d compression blocks\n", tree.NumFiles(), res.Blocks)

	runner, _ := workload.NewRunner("01", "kernel-2.6", 20, 64<<10, 8<<10, simkernel.NewRNG("example"))
	cycle, _ := runner.RunCycle(time.Date(2010, time.February, 19, 0, 0, 0, 0, time.UTC), true)
	fmt.Printf("after one flipped bit: hash still %v, %d of %d blocks corrupt\n",
		cycle.OK, len(cycle.BadBlocks), cycle.Blocks)
	// Output:
	// packed 20 files into 11 compression blocks
	// after one flipped bit: hash still false, 1 of 11 blocks corrupt
}
