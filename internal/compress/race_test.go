//go:build race

package compress

// raceEnabled reports a -race build: sync.Pool then drops items at
// random, and every memory access costs many times more.
const raceEnabled = true
