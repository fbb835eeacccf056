//go:build race

package main

// raceEnabled reports a -race build, in which sync.Pool drops items on
// purpose, so pooled standard-library buffers allocate.
const raceEnabled = true
