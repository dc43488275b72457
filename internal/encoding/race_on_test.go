//go:build race

package encoding

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of Puts and allocation counts are meaningless.
const raceEnabled = true
