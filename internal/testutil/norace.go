//go:build !race

package testutil

// RaceEnabled reports whether the binary was built with -race.
const RaceEnabled = false
