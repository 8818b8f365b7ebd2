//go:build race

package client

// raceEnabled reports a -race build, where allocation counts are not
// meaningful.
const raceEnabled = true
