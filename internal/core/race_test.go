//go:build race

package core

// raceEnabled is set under -race, whose sync.Pool drops items at random,
// so allocation counts there do not measure the code.
const raceEnabled = true
