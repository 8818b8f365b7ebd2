//go:build race

package wire

// raceEnabled reports a -race build, where allocation counts are not
// meaningful.
const raceEnabled = true
