//go:build race

package main

// raceEnabled reports a -race build, whose runtime makes allocation counts
// vary from run to run: sync.Pool drops items at random.
const raceEnabled = true
