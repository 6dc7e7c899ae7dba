//go:build race

package serving

// raceEnabled reports a -race build, where sync.Pool drops a share of Puts
// at random, so allocation pins on pooled paths cannot hold.
const raceEnabled = true
