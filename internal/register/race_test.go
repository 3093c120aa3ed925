//go:build race

package register

// raceEnabled reports a -race build, whose sync.Pool drops a share of the
// items it is given on purpose, so allocation counts through a pool vary.
const raceEnabled = true
