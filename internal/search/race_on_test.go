//go:build race

package search

// raceEnabled reports a -race build, where sync.Pool drops a share of Puts
// at random, so allocation pins on pooled paths cannot hold.
const raceEnabled = true
