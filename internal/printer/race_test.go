//go:build race

package printer

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of its buffers, so pooled allocation counts are
// not exact there.
const raceEnabled = true
