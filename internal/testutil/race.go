//go:build race

package testutil

// RaceEnabled reports whether the binary was built with -race, whose
// instrumentation allocates and whose sync.Pool drops a share of the
// buffers put back, so allocation gates skip under it.
const RaceEnabled = true
